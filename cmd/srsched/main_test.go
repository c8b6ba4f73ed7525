package main

import (
	"reflect"
	"testing"

	"schedroute/internal/topology"
	"schedroute/pkg/schedroute"
)

// TestRandomWatchScript pins seed 2's four-fault script on the 6-cube,
// and on the 3-cube, for every scenario size up to the link count and
// 200 seeds, holds every script to what the watch accepts: each event
// names links whose state it changes — a fault only healthy links, a
// repair only failed ones — every drawn link fails exactly once, and
// the same seed gives the same script.
func TestRandomWatchScript(t *testing.T) {
	cube6, err := topology.NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	fault, repaired := schedroute.WatchEventFault, schedroute.WatchEventRepaired
	want := []schedroute.WatchEvent{
		{Type: fault, Links: []string{"45-61"}},
		{Type: fault, Links: []string{"0-1"}},
		{Type: repaired, Links: []string{"45-61"}},
		{Type: fault, Links: []string{"37-39", "36-38"}},
		{Type: repaired, Links: []string{"37-39", "36-38"}},
	}
	if got := randomWatchScript(cube6, 2, 4); !reflect.DeepEqual(got, want) {
		t.Errorf("6-cube seed 2, 4 faults:\n got %v\nwant %v", got, want)
	}

	top, err := topology.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= top.Links(); n++ {
		for seed := int64(0); seed < 200; seed++ {
			evs := randomWatchScript(top, seed, n)
			if !reflect.DeepEqual(evs, randomWatchScript(top, seed, n)) {
				t.Fatalf("seed %d, %d faults: two calls gave different scripts", seed, n)
			}
			fs := topology.NewFaultSet()
			struck := 0
			for _, ev := range evs {
				if len(ev.Links) == 0 || len(ev.Nodes) != 0 {
					t.Fatalf("seed %d, %d faults: event %v is not a link event", seed, n, ev)
				}
				for _, spec := range ev.Links {
					l, err := top.ParseLinkSpec(spec)
					if err != nil {
						t.Fatal(err)
					}
					if fs.LinkFailed(l) == (ev.Type == fault) {
						t.Fatalf("seed %d, %d faults: %s %s changes nothing at %s", seed, n, ev.Type, spec, fs)
					}
					if ev.Type == fault {
						fs.FailLink(l)
						struck++
					} else {
						fs.RepairLink(l)
					}
				}
			}
			if struck != n {
				t.Fatalf("seed %d: %d links struck, want %d", seed, struck, n)
			}
		}
	}
}
