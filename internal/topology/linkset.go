package topology

import "math/bits"

// wordBits is the width of one LinkSet word.
const wordBits = 64

// LinkSet is a bitset over dense LinkIDs, the hot-path replacement for
// map[LinkID]bool throughout the scheduler: link IDs are small dense
// integers (0..Links()-1), so a handful of words covers every network
// the paper evaluates, membership is one shift-and-mask, and set
// intersection — the interval scheduler's conflict test — is a word-wise
// AND instead of a map probe per element.
//
// The zero value is an empty set; Add grows the backing words on
// demand, so callers that do not know the link count up front can still
// use it.
type LinkSet struct {
	words []uint64
}

// NewLinkSet returns an empty set pre-sized for links 0..nlinks-1.
func NewLinkSet(nlinks int) LinkSet {
	if nlinks <= 0 {
		return LinkSet{}
	}
	return LinkSet{words: make([]uint64, (nlinks+wordBits-1)/wordBits)}
}

// Add inserts l, growing the set as needed. Negative IDs are ignored.
func (s *LinkSet) Add(l LinkID) {
	if l < 0 {
		return
	}
	w := int(l) / wordBits
	if w >= len(s.words) {
		grown := make([]uint64, w+1)
		copy(grown, s.words)
		s.words = grown
	}
	s.words[w] |= 1 << (uint(l) % wordBits)
}

// AddLinks inserts every link of ls.
func (s *LinkSet) AddLinks(ls []LinkID) {
	for _, l := range ls {
		s.Add(l)
	}
}

// Remove deletes l from the set; absent or negative IDs are a no-op.
func (s *LinkSet) Remove(l LinkID) {
	if l < 0 {
		return
	}
	w := int(l) / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(l) % wordBits)
	}
}

// Has reports whether l is in the set.
func (s *LinkSet) Has(l LinkID) bool {
	if l < 0 {
		return false
	}
	w := int(l) / wordBits
	return w < len(s.words) && s.words[w]&(1<<(uint(l)%wordBits)) != 0
}

// Count returns the number of links in the set.
func (s *LinkSet) Count() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Clear empties the set, keeping its capacity for reuse.
func (s *LinkSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Links returns the members in ascending LinkID order.
func (s *LinkSet) Links() []LinkID {
	out := make([]LinkID, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, LinkID(wi*wordBits+b))
			w &^= 1 << uint(b)
		}
	}
	return out
}
