package main

import (
	"testing"
	"time"
)

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: 10..60 is covered once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root: only 90..100 counts
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},  // grandchild: covered by a, not root's child
		{ID: 6, Name: "root", Start: 200, End: 250},        // no children
	}
	want := map[string][]time.Duration{
		"root": {100 - 50 - 10, 50},
		"a":    {30 - 5},
		"b":    {30},
		"c":    {30},
		"d":    {5},
	}
	for name, w := range want {
		got := selfTimes(spans, name)
		if len(got) != len(w) {
			t.Fatalf("%s: %v, want %v", name, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("%s[%d]: self %v, want %v", name, i, got[i], w[i])
			}
		}
	}
}

// TestOverlapSelfTime: without parent links, children are the spans of
// the child layer that overlap the parent in time, and child time that
// falls inside two concurrent parents is split between them, so together
// they lose it once.
func TestOverlapSelfTime(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  []time.Duration
	}{
		{"disjoint parents", []span{
			{ID: 1, Name: "router", Start: 0, End: 100},
			{ID: 2, Name: "backend", Start: 20, End: 30},
			{ID: 3, Name: "backend", Start: 25, End: 50},
			{ID: 4, Name: "backend", Start: 95, End: 140},
			{ID: 5, Name: "backend", Start: 200, End: 300},
			{ID: 6, Name: "router", Start: 150, End: 250},
		}, []time.Duration{100 - 30 - 5, 100 - 50}},
		{"concurrent parents", []span{
			{ID: 1, Name: "router", Start: 0, End: 100},
			{ID: 2, Name: "router", Start: 50, End: 150},
			{ID: 3, Name: "backend", Start: 10, End: 20},   // inside the first router only
			{ID: 4, Name: "backend", Start: 60, End: 80},   // inside both: 10 each
			{ID: 5, Name: "backend", Start: 70, End: 90},   // overlaps 4: 80..90 is new, 5 each
			{ID: 6, Name: "backend", Start: 120, End: 130}, // inside the second router only
		}, []time.Duration{100 - 10 - 10 - 5, 100 - 10 - 5 - 10}},
	}
	for _, tc := range cases {
		got := overlapSelfTimes(tc.spans, "router", "backend")
		if len(got) != len(tc.want) {
			t.Fatalf("%s: self %v, want %v", tc.name, got, tc.want)
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("%s: self %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}
