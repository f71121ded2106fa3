package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadBackgroundFlagExits2: a background the mesh cannot install is a
// usage error naming the flag, never a panic from deep in the workload.
func TestBadBackgroundFlagExits2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-flows", "-1"}, "-flows must not be negative"},
		{[]string{"-rate", "0"}, "-rate must be positive with 96 flows"},
		{[]string{"-flows", "8", "-rate", "-3"}, "-rate must be positive with 8 flows"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("mars-sim %v exited %d, want 2 (stderr %q)", tc.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("mars-sim %v: stderr %q, want it to contain %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("mars-sim %v printed %q before rejecting its flags", tc.args, stdout.String())
		}
	}
}
