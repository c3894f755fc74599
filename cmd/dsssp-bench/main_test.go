package main

import (
	"strings"
	"testing"

	"dsssp/internal/harness"
)

// TestSelectScenarios: a blank -scenarios filter or one that matches
// nothing is an error, never an empty sweep whose empty report would read
// as success; "all" and real globs select scenarios.
func TestSelectScenarios(t *testing.T) {
	reg := harness.Default(true)
	for filter, errText := range map[string]string{
		"":                   "empty -scenarios filter",
		" , ":                "empty -scenarios filter",
		"no-such-scenario/*": "matches no scenario",
	} {
		if scns, err := selectScenarios(reg, filter); err == nil || !strings.Contains(err.Error(), errText) {
			t.Errorf("filter %q: got %d scenarios, error %v; want an error containing %q", filter, len(scns), err, errText)
		}
	}
	if scns, err := selectScenarios(reg, "all"); err != nil || len(scns) != reg.Len() {
		t.Errorf("filter \"all\": got %d scenarios, error %v; want all %d", len(scns), err, reg.Len())
	}
	scns, err := selectScenarios(reg, " congest-bellman-ford/* ,")
	if err != nil || len(scns) == 0 {
		t.Fatalf("glob filter: got %d scenarios, error %v", len(scns), err)
	}
	for _, s := range scns {
		if !strings.HasPrefix(s.Name, "congest-bellman-ford/") {
			t.Errorf("glob filter selected %s", s.Name)
		}
	}
}
