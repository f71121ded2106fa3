package ctrlchan

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteSeedCorpus regenerates the committed fuzz seed corpus when run
// with MARS_WRITE_CORPUS=1. It is a no-op otherwise.
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("MARS_WRITE_CORPUS") == "" {
		t.Skip("set MARS_WRITE_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeMessage")
	for i, m := range wireMessages() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", EncodeMessage(&m))
		name := filepath.Join(dir, fmt.Sprintf("seed-%s-%d", m.Kind, i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dir = filepath.Join("testdata", "fuzz", "FuzzReassembly")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, seed := range reasmSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
