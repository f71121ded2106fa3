package deploy

import (
	"encoding/json"
	"fmt"
	"os"
)

// WriteFile serializes the scenario as JSON — the launcher writes it once
// and every node process re-derives the identical capture from it.
func (s Scenario) WriteFile(path string) error { return writeJSON(path, "scenario", s) }

// ReadScenario loads a scenario JSON file.
func ReadScenario(path string) (Scenario, error) {
	var s Scenario
	err := readJSON(path, "scenario", &s)
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
