package topology

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestLinkSetAddHas(t *testing.T) {
	var s LinkSet
	if s.Has(0) || s.Count() != 0 {
		t.Fatal("zero value must be empty")
	}
	s.Add(3)
	s.Add(3)
	s.Add(70)
	if !s.Has(3) || !s.Has(70) {
		t.Error("added links missing")
	}
	if s.Has(4) || s.Has(71) || s.Has(1000) {
		t.Error("absent links reported present")
	}
	if s.Count() != 2 {
		t.Errorf("count %d, want 2", s.Count())
	}
	s.Add(-1)
	if s.Count() != 2 || s.Has(-1) {
		t.Error("negative IDs must be ignored")
	}
}

func TestLinkSetWordBoundaries(t *testing.T) {
	// IDs at and around the 64-bit word edges are where shift/index
	// arithmetic goes wrong.
	edges := []LinkID{0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 191, 192}
	var s LinkSet
	for _, l := range edges {
		s.Add(l)
	}
	for _, l := range edges {
		if !s.Has(l) {
			t.Errorf("link %d lost at word edge", l)
		}
	}
	for _, l := range []LinkID{2, 61, 66, 125, 130, 193, 1 << 20} {
		if s.Has(l) {
			t.Errorf("link %d wrongly present", l)
		}
	}
	if got := s.Count(); got != len(edges) {
		t.Errorf("count %d, want %d", got, len(edges))
	}
	if got := s.Links(); !reflect.DeepEqual(got, edges) {
		t.Errorf("Links() = %v, want %v", got, edges)
	}
}

func TestLinkSetMatchesMapReference(t *testing.T) {
	// Property check against the old map-based representation on random
	// link sets spanning several words.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		ref := map[LinkID]bool{}
		var s LinkSet
		for i := 0; i < rng.Intn(40); i++ {
			l := LinkID(rng.Intn(200))
			ref[l] = true
			s.Add(l)
		}
		if s.Count() != len(ref) {
			t.Fatalf("trial %d: count %d, want %d", trial, s.Count(), len(ref))
		}
		for l := LinkID(0); l < 220; l++ {
			if s.Has(l) != ref[l] {
				t.Fatalf("trial %d: Has(%d) = %v, map says %v", trial, l, s.Has(l), ref[l])
			}
		}
	}
}
