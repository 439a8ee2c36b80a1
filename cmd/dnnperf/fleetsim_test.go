package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestFleetsimSweepTrimsListFlags drives the sweep path with spaces after
// the commas of every list flag: each item is trimmed, so " lpt" names the
// lpt policy instead of failing as an unknown one.
func TestFleetsimSweepTrimsListFlags(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "sweep-*.json")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = runFleetsim(fleetsimFlags{
		fleetSize:   2,
		requests:    200,
		rate:        100,
		seed:        7,
		sweepFleet:  "2, 4",
		sweepRate:   "100, 200",
		sweepPolicy: "jsq, lpt",
		p99Target:   time.Second,
	})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	var sum fleetsimSweepSummary
	if err := json.Unmarshal(blob, &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Grid) != 8 {
		t.Fatalf("swept %d cells, want 8", len(sum.Grid))
	}
	keys := make([]string, 0, len(sum.MinFleetForP99))
	for k := range sum.MinFleetForP99 {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	want := []string{"r100-jsq", "r100-lpt", "r200-jsq", "r200-lpt"}
	if !slices.Equal(keys, want) {
		t.Fatalf("capacity answer keys %q, want %q", keys, want)
	}
}

// TestFleetsimClosedLoopNeedsUsers runs `dnnperf -arrival closed fleetsim`
// without -users: the scenario is rejected with an error naming Users,
// not the simulator's internal complaint about a missing trace.
func TestFleetsimClosedLoopNeedsUsers(t *testing.T) {
	err := runFleetsim(fleetsimFlags{
		fleetSize: 2,
		requests:  100,
		rate:      100,
		arrival:   "closed",
		policy:    "jsq",
		think:     50 * time.Millisecond,
		horizon:   time.Second,
		seed:      1,
	})
	if err == nil || !strings.Contains(err.Error(), "Users") {
		t.Fatalf("closed loop without users: error %v, want one naming Users", err)
	}
}
