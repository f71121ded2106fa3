package experiments

import (
	"testing"

	"mars/internal/netsim"
	"mars/internal/topology"
)

// The partitioned drivers rest on one pairing the simulator never checks:
// program index i holds exactly the registers of the switches whose hooks
// owner i receives, and buffer i holds only records sunk there. Assert it
// for every way the requested count can resolve: below 1, 1, a count that
// does not divide the units, the unit count, and more than the units.
func TestShardedFabricProgramShardPairing(t *testing.T) {
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	units := ft.PodPartition().NumUnits
	table := selectivePathTable(ft, streamMeshPairs(ft, 32))
	for _, req := range []int{0, 1, 3, 4, 9} {
		want := req
		if want < 1 {
			want = 1
		}
		if want > units {
			want = units
		}
		stop := 200 * netsim.Millisecond
		sh, progs, bufs := NewShardedFabric(ft, req, 7, table, 32, 150, stop)
		if sh.NumShards() != want || len(progs) != want || len(bufs) != want {
			t.Errorf("shards=%d: simulator has %d owners, %d programs, %d buffers; want %d",
				req, sh.NumShards(), len(progs), len(bufs), want)
		}
		for _, sw := range ft.Switches() {
			owners := 0
			for i, p := range progs {
				if !p.Resident(sw) {
					continue
				}
				owners++
				if got := sh.ShardFor(sw); got != i {
					t.Errorf("shards=%d: switch %d is resident in program %d but its hooks go to owner %d", req, sw, i, got)
				}
			}
			if owners != 1 {
				t.Errorf("shards=%d: switch %d is resident in %d programs, want exactly 1", req, sw, owners)
			}
		}
		sh.Run(stop + 50*netsim.Millisecond)
		tapped := 0
		for i, buf := range bufs {
			tapped += len(buf)
			for _, rec := range buf {
				if !progs[i].Resident(rec.Flow.Sink) {
					t.Fatalf("shards=%d: buffer %d holds a record sunk at switch %d, which program %d does not own",
						req, i, rec.Flow.Sink, i)
				}
			}
		}
		if tapped == 0 {
			t.Errorf("shards=%d: the tap saw no records; the sink check is vacuous", req)
		}
	}
}
