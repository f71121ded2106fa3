package main

import (
	"strings"
	"testing"
)

// TestOnlyUnknownName: a typo'd -only must exit 2 and tell the operator
// what the valid analyzer names are.
func TestOnlyUnknownName(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-only", "detflw", "."}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	msg := errb.String()
	if !strings.Contains(msg, `unknown analyzer "detflw"`) {
		t.Errorf("stderr %q does not name the bad analyzer", msg)
	}
	for _, name := range []string{"detrand", "detflow", "allocfree", "exhaustcase"} {
		if !strings.Contains(msg, name) {
			t.Errorf("stderr %q does not list valid analyzer %q", msg, name)
		}
	}
}

// TestListOutput pins the -list rendering that README.md embeds.
func TestListOutput(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-list"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, errb.String())
	}
	text := out.String()
	if text != AnalyzerList() {
		t.Errorf("-list output diverges from AnalyzerList()")
	}
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) != 7 {
		t.Errorf("-list printed %d analyzers, want 7:\n%s", len(lines), text)
	}
	for _, want := range []string{"detflow", "allocfree", "exhaustcase", "testonly", "suppress with //mars:partial", "suppress with //mars:test-seam"} {
		if !strings.Contains(text, want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

// TestBadFlag: unparsable flags are a usage error, not a crash.
func TestBadFlag(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-nope"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}
