package deploy

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"mars"
)

// WriteFile serializes the scenario as JSON — the launcher writes it once
// and every node process re-derives the identical capture from it.
func (s Scenario) WriteFile(path string) error { return writeJSON(path, "scenario", s) }

// unreadFault marks a scenario's fault before decoding: the zero Kind is
// micro-burst, so a file with no "fault" key must not read as one.
const unreadFault = math.MaxUint8

// ReadScenario loads a scenario JSON file. The fault is named ("delay");
// an unknown, empty or missing name is an error.
func ReadScenario(path string) (Scenario, error) {
	s := Scenario{Scenario: mars.Scenario{Fault: unreadFault}}
	err := readJSON(path, "scenario", &s)
	if err == nil && s.Fault == unreadFault {
		err = fmt.Errorf("deploy: scenario %s has no \"fault\"", path)
	}
	return s, err
}

// writeJSON and readJSON move the launcher's two files (scenario, port
// map) to and from disk; what names the file in errors.
func writeJSON(path, what string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("deploy: encoding %s: %w", what, err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path, what string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("deploy: reading %s: %w", what, err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("deploy: parsing %s %s: %w", what, path, err)
	}
	return nil
}
