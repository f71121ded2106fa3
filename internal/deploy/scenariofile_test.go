package deploy

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// defaultScenarioJSON is json.Marshal(DefaultScenario()) as the file
// format has always written it: the trial's fields, then the deployment's,
// in this order, with the fault by name.
const defaultScenarioJSON = `{"k":4,"seed":1000,"flows":96,"rate_pps":220,"fault":"silent-drop",` +
	`"fault_start":2000000000,"fault_dur":1500000000,"run_for":4000000000,"scale":0.25,"groups":4}`

func TestScenarioFileFormat(t *testing.T) {
	b, err := json.Marshal(DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != defaultScenarioJSON {
		t.Fatalf("default scenario encodes as\n%s\nwant\n%s", b, defaultScenarioJSON)
	}
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := DefaultScenario().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != DefaultScenario() {
		t.Fatalf("round trip read %+v, want %+v", got, DefaultScenario())
	}
}

// TestBadScenarioFileIsAnError feeds ReadScenario → Build the default
// file with one field broken: each must come back as an error naming the
// field, never as a panic or a silently different run.
func TestBadScenarioFileIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name, from, to, want string
	}{
		{"negative flows", `"flows":96`, `"flows":-1`, `"flows"`},
		{"zero rate", `"rate_pps":220`, `"rate_pps":0`, `"rate_pps"`},
		{"unknown fault", `"fault":"silent-drop"`, `"fault":"bogus"`, `fault "bogus"`},
		{"empty fault", `"fault":"silent-drop"`, `"fault":""`, `fault ""`},
		{"missing fault", `"fault":"silent-drop",`, ``, `"fault"`},
		{"zero scale", `"scale":0.25`, `"scale":0`, `"scale"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := strings.Replace(defaultScenarioJSON, tc.from, tc.to, 1)
			if body == defaultScenarioJSON {
				t.Fatalf("%q is not in the default file", tc.from)
			}
			path := filepath.Join(t.TempDir(), "scenario.json")
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			sc, err := ReadScenario(path)
			if err == nil {
				_, err = Build(sc)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: err = %v, want an error naming %s", body, err, tc.want)
			}
		})
	}
}
