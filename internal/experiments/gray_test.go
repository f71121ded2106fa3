package experiments

import (
	"strings"
	"testing"

	"mars/internal/harness"
)

// The gray suite must render byte-identically for any worker count —
// parallelism may only change wall-clock time. This is the same guarantee
// the other drivers pin, extended to the schedule-based trials.
func TestGrayDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full gray suite in -short mode")
	}
	one := RunGrayWith(harness.Config{Workers: 1}, 2, 77).Render()
	eight := RunGrayWith(harness.Config{Workers: 8}, 2, 77).Render()
	if one != eight {
		t.Fatalf("gray grid differs between 1 and 8 workers:\n--- w1 ---\n%s--- w8 ---\n%s", one, eight)
	}
}

// Both analyzer modes of every scenario appear in the rendered grid, and
// every trial of every scenario is detected or not without panicking —
// the smoke-level contract the CI job relies on.
func TestGrayRenderCoversGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full gray suite in -short mode")
	}
	out := RunGrayWith(harness.Config{Workers: 4}, 1, 33).Render()
	for _, sc := range GrayScenarios() {
		if !strings.Contains(out, sc.Name) {
			t.Errorf("grid lacks scenario %q:\n%s", sc.Name, out)
		}
	}
	for _, mode := range []string{"paper", "compound"} {
		if !strings.Contains(out, mode) {
			t.Errorf("grid lacks mode %q:\n%s", mode, out)
		}
	}
}

// The episode window helper spans overlapping injections.
func TestScheduleWindowEnvelope(t *testing.T) {
	scens := GrayScenarios()
	last := scens[len(scens)-1] // delay+drop: 2s+1.5s and 2.3s+1.0s
	start, dur := scheduleWindow(last.Schedule)
	if start != 2_000_000_000 || dur != 1_500_000_000 {
		t.Fatalf("envelope = start %v dur %v", start, dur)
	}
}
