package main

import (
	"strings"
	"testing"
)

// gateTestEntry is a trajectory entry from environment goVer/procs carrying
// one engine workload and the standard sweep.
func gateTestEntry(goVer string, procs int, events, cells float64) BenchEntry {
	return BenchEntry{
		Go:       goVer,
		MaxProcs: procs,
		Engine:   []EngineBench{{Name: "ring-16", EventsPerSec: events}},
		Matrix:   &MatrixBench{CellsPerSec: cells},
	}
}

func TestGateEntry(t *testing.T) {
	here := func(events, cells float64) BenchEntry { return gateTestEntry("go1.24.0", 2, events, cells) }
	cases := []struct {
		name       string
		trajectory []BenchEntry
		cur        BenchEntry
		fail       string // substring of the expected error; "" = pass
	}{
		{
			name:       "steady",
			trajectory: []BenchEntry{here(1e6, 100), here(1.02e6, 98)},
			cur:        here(0.95e6, 96),
		},
		{
			// Every step is a 13% drop, under the 15% tolerance against
			// the previous entry, but 24% below the best in the window.
			name:       "slow slide",
			trajectory: []BenchEntry{here(1e6, 100), here(0.87e6, 87)},
			cur:        here(0.87e6, 75.7),
			fail:       "matrix: 75.70 cells/s, best of 2 same-environment entries 100.00",
		},
		{
			name:       "drop against the previous entry",
			trajectory: []BenchEntry{here(1e6, 100)},
			cur:        here(0.8e6, 100),
			fail:       "engine ring-16",
		},
		{
			// The best value left the window: only the last gateWindow
			// entries count.
			name:       "best outside the window",
			trajectory: []BenchEntry{here(2e6, 200), here(1e6, 100), here(1e6, 100), here(1e6, 100), here(1e6, 100), here(1e6, 100)},
			cur:        here(0.9e6, 90),
		},
		{
			name: "cross-environment trajectory skipped",
			trajectory: []BenchEntry{
				gateTestEntry("go1.23.0", 2, 9e6, 900),
				gateTestEntry("go1.24.0", 8, 9e6, 900),
			},
			cur: here(1e6, 100),
		},
		{
			// Entries from other environments in the window are ignored;
			// the same-environment one still gates.
			name:       "mixed environments",
			trajectory: []BenchEntry{here(1e6, 100), gateTestEntry("go1.24.0", 8, 0.5e6, 50)},
			cur:        here(0.8e6, 100),
			fail:       "engine ring-16: 800000.00 events/s, best of 1 same-environment entries 1000000.00",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := gateEntry(tc.trajectory, tc.cur, 0.15)
			switch {
			case tc.fail == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.fail != "" && err == nil:
				t.Fatalf("gate passed, want a failure naming %q", tc.fail)
			case tc.fail != "" && !strings.Contains(err.Error(), tc.fail):
				t.Fatalf("gate error %q does not name %q", err, tc.fail)
			}
		})
	}
}
