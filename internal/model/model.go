package model

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// ID identifies a process. IDs are unique, not necessarily consecutive, and
// Sybil-proof by assumption (Section II-A of the paper): a faulty process
// cannot obtain additional IDs.
type ID uint64

// NilID is the zero ID, never used by a real process.
const NilID ID = 0

// String implements fmt.Stringer.
func (id ID) String() string { return fmt.Sprintf("p%d", uint64(id)) }

// Value is a consensus proposal. Values are opaque bytes; consensus compares
// them only for equality (via Equal or digests).
type Value []byte

// Equal reports whether two values are byte-wise equal.
func (v Value) Equal(o Value) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (v Value) String() string {
	if v == nil {
		return "⊥"
	}
	return string(v)
}

// IDSet is a set of process identifiers. The zero value is an empty set ready
// to use for reads; use Add (or NewIDSet) before writing.
type IDSet map[ID]struct{}

// NewIDSet returns a set containing the given IDs.
func NewIDSet(ids ...ID) IDSet {
	s := make(IDSet, len(ids))
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

// Add inserts id and reports whether it was absent.
func (s IDSet) Add(id ID) bool {
	if _, ok := s[id]; ok {
		return false
	}
	s[id] = struct{}{}
	return true
}

// AddAll inserts every id in other and reports whether anything was added.
func (s IDSet) AddAll(other IDSet) bool {
	added := false
	for id := range other {
		if s.Add(id) {
			added = true
		}
	}
	return added
}

// Remove deletes id from the set.
func (s IDSet) Remove(id ID) { delete(s, id) }

// Has reports membership.
func (s IDSet) Has(id ID) bool {
	_, ok := s[id]
	return ok
}

// Len returns the cardinality.
func (s IDSet) Len() int { return len(s) }

// Clone returns an independent copy.
func (s IDSet) Clone() IDSet {
	c := make(IDSet, len(s))
	for id := range s {
		c[id] = struct{}{}
	}
	return c
}

// Sorted returns the members in ascending order. This is the only sanctioned
// way to iterate a set where ordering is observable. slices.Sort, not
// sort.Slice: Sorted is the single hottest allocation site of a sweep (every
// canonical encoding and search pass sorts), and the interface-based sorter
// allocates a closure and a reflect swapper per call.
func (s IDSet) Sorted() []ID {
	out := make([]ID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Union returns a new set with the members of both sets.
func (s IDSet) Union(other IDSet) IDSet {
	c := s.Clone()
	c.AddAll(other)
	return c
}

// Intersect returns a new set with the members common to both sets.
func (s IDSet) Intersect(other IDSet) IDSet {
	c := NewIDSet()
	for id := range s {
		if other.Has(id) {
			c.Add(id)
		}
	}
	return c
}

// Diff returns a new set with the members of s not in other.
func (s IDSet) Diff(other IDSet) IDSet {
	c := NewIDSet()
	for id := range s {
		if !other.Has(id) {
			c.Add(id)
		}
	}
	return c
}

// SubsetOf reports whether every member of s is in other.
func (s IDSet) SubsetOf(other IDSet) bool {
	for id := range s {
		if !other.Has(id) {
			return false
		}
	}
	return true
}

// Equal reports whether the two sets have the same members.
func (s IDSet) Equal(other IDSet) bool {
	return len(s) == len(other) && s.SubsetOf(other)
}

// String renders the set as {p1, p2, ...} in ascending order.
func (s IDSet) String() string {
	ids := s.Sorted()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = id.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Key returns a canonical string usable as a map key for memoization: the
// members in ascending order, in decimal, comma-separated.
func (s IDSet) Key() string { return string(AppendKey(nil, s.Sorted())) }

// AppendKey appends the Key of the set whose members are ids, ascending, to
// buf — for callers that hold a set as a sorted slice.
func AppendKey(buf []byte, ids []ID) []byte {
	for i, id := range ids {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendUint(buf, uint64(id), 10)
	}
	return buf
}

// IDIndex hands out dense indices 0, 1, 2… to IDs in insertion order, so the
// per-message paths (the engine's process table, discovery's replay memo) keep
// per-ID state in a slice and find it without a Go map. An append-only
// open-addressed table — power-of-two slots at most half full, linear probing,
// no deletion: an index never changes. ID 0 is legal; the zero value is empty.
type IDIndex struct {
	slots []idSlot
	n     int
}

// idSlot is one table slot; idx1 is the index plus one, 0 marking it empty.
type idSlot struct {
	id   ID
	idx1 int32
}

// probe returns the slot that holds id, or the empty one where it belongs. The
// top bits of an odd multiple (Fibonacci hashing) spread IDs that differ only
// in high bits (multiples of 2³²) and IDs that differ only in low ones alike.
func (x *IDIndex) probe(id ID) *idSlot {
	mask := uint64(len(x.slots) - 1)
	i := uint64(id) * 0x9E3779B97F4A7C15 >> bits.LeadingZeros64(mask)
	for x.slots[i].idx1 != 0 && x.slots[i].id != id {
		i = (i + 1) & mask
	}
	return &x.slots[i]
}

// Lookup returns id's index, or -1 and false if it was never inserted.
func (x *IDIndex) Lookup(id ID) (int, bool) {
	if x.n == 0 {
		return -1, false
	}
	s := x.probe(id)
	return int(s.idx1) - 1, s.idx1 != 0
}

// Insert returns id's index, assigning the next one (the count of IDs so far)
// if id is new; added reports which.
func (x *IDIndex) Insert(id ID) (idx int, added bool) {
	if idx, ok := x.Lookup(id); ok {
		return idx, false
	}
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		x.slots = make([]idSlot, max(8, 2*len(old)))
		for _, s := range old {
			if s.idx1 != 0 {
				*x.probe(s.id) = s
			}
		}
	}
	x.n++
	*x.probe(id) = idSlot{id, int32(x.n)}
	return x.n - 1, true
}

// Reset empties the index and keeps its slots for reuse.
func (x *IDIndex) Reset() { clear(x.slots); x.n = 0 }
