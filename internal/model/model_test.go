package model

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestIDSetBasics(t *testing.T) {
	s := NewIDSet(3, 1, 2)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if !s.Has(1) || !s.Has(2) || !s.Has(3) || s.Has(4) {
		t.Fatalf("membership wrong: %v", s)
	}
	if s.Add(1) {
		t.Fatal("Add of existing member reported true")
	}
	if !s.Add(4) {
		t.Fatal("Add of new member reported false")
	}
	s.Remove(2)
	if s.Has(2) {
		t.Fatal("Remove did not delete")
	}
	got := s.Sorted()
	want := []ID{1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Sorted = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted = %v, want %v", got, want)
		}
	}
}

func TestIDSetZeroValueReads(t *testing.T) {
	var s IDSet
	if s.Has(1) || s.Len() != 0 {
		t.Fatal("zero-value set should read as empty")
	}
	if got := s.Sorted(); len(got) != 0 {
		t.Fatalf("Sorted on empty = %v", got)
	}
}

func TestIDSetAlgebra(t *testing.T) {
	a := NewIDSet(1, 2, 3)
	b := NewIDSet(3, 4)
	if u := a.Union(b); !u.Equal(NewIDSet(1, 2, 3, 4)) {
		t.Fatalf("Union = %v", u)
	}
	if i := a.Intersect(b); !i.Equal(NewIDSet(3)) {
		t.Fatalf("Intersect = %v", i)
	}
	if d := a.Diff(b); !d.Equal(NewIDSet(1, 2)) {
		t.Fatalf("Diff = %v", d)
	}
	if !a.SubsetOf(a) {
		t.Fatal("a ⊆ a should be true")
	}
}

func TestIDSetCloneIndependence(t *testing.T) {
	a := NewIDSet(1, 2)
	c := a.Clone()
	c.Add(3)
	if a.Has(3) {
		t.Fatal("Clone is not independent")
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{nil, nil, true},
		{Value(""), nil, true},
		{Value("x"), Value("x"), true},
		{Value("x"), Value("y"), false},
		{Value("x"), Value("xx"), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("Equal(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueString(t *testing.T) {
	if Value(nil).String() != "⊥" {
		t.Fatal("nil value should render as ⊥")
	}
	if Value("v").String() != "v" {
		t.Fatal("value string mismatch")
	}
}

// Property: union is commutative and contains both operands; diff and
// intersect partition the left operand.
func TestIDSetProperties(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b := NewIDSet(), NewIDSet()
		for _, x := range xs {
			a.Add(ID(x))
		}
		for _, y := range ys {
			b.Add(ID(y))
		}
		u1, u2 := a.Union(b), b.Union(a)
		if !u1.Equal(u2) || !a.SubsetOf(u1) || !b.SubsetOf(u1) {
			return false
		}
		inter, diff := a.Intersect(b), a.Diff(b)
		if inter.Len()+diff.Len() != a.Len() {
			return false
		}
		return inter.Union(diff).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Sorted returns ascending, duplicate-free output matching Len.
func TestIDSetSortedProperty(t *testing.T) {
	f := func(xs []uint16) bool {
		s := NewIDSet()
		for _, x := range xs {
			s.Add(ID(x))
		}
		got := s.Sorted()
		if len(got) != s.Len() {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIDSetKeyCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(10)
		ids := make([]ID, n)
		for i := range ids {
			ids[i] = ID(rng.Intn(100))
		}
		a := NewIDSet(ids...)
		// Insert in a different order.
		b := NewIDSet()
		for i := len(ids) - 1; i >= 0; i-- {
			b.Add(ids[i])
		}
		if a.Key() != b.Key() {
			t.Fatalf("Key not canonical: %q vs %q", a.Key(), b.Key())
		}
	}
	if NewIDSet(1, 2).Key() == NewIDSet(1, 3).Key() {
		t.Fatal("distinct sets share a key")
	}
}

// TestKeyPinned pins Key's text: members ascend numerically, in decimal,
// comma-separated. The sink search orders its candidates by comparing these
// strings — decimal-string order ("10,9…" sorts before "9"), not numeric
// order, is what committee adoption depends on — so the rendering may get
// faster but never different.
func TestKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		set  IDSet
		want string
	}{
		{NewIDSet(), ""},
		{NewIDSet(0), "0"},
		{NewIDSet(7), "7"},
		{NewIDSet(10, 9, 100), "9,10,100"},
		{NewIDSet(math.MaxUint64, 1), "1,18446744073709551615"},
	} {
		if got := tc.set.Key(); got != tc.want {
			t.Errorf("%v.Key() = %q, want %q", tc.set, got, tc.want)
		}
		if got := string(AppendKey([]byte("x"), tc.set.Sorted())); got != "x"+tc.want {
			t.Errorf("AppendKey(\"x\", %v) = %q, want %q", tc.set, got, "x"+tc.want)
		}
	}
}

// TestIDIndexMatchesMap runs seeded insert/lookup scripts against a Go map:
// indices come out 0, 1, 2… in insertion order, a repeated Insert returns the
// index handed out the first time, a Lookup of anything never inserted
// misses, and none of it changes across growths. The ID families are the
// ones a weak hash folds together — multiples of 2³² and 2⁴⁸ share all their
// low bits, dense 1…n all their high ones — plus 0 (an ID like any other), 1
// and MaxUint64. The zero IDIndex reads as empty.
func TestIDIndexMatchesMap(t *testing.T) {
	families := map[string]func(rng *rand.Rand, i int) ID{
		"dense":      func(_ *rand.Rand, i int) ID { return ID(i + 1) },
		"times-2^32": func(_ *rand.Rand, i int) ID { return ID(i) << 32 },
		"times-2^48": func(_ *rand.Rand, i int) ID { return ID(i) << 48 },
		"random":     func(rng *rand.Rand, _ int) ID { return ID(rng.Uint64()) },
		"mixed": func(rng *rand.Rand, i int) ID {
			return []ID{0, 1, math.MaxUint64, ID(i) << 32, ID(i) << 48, ID(i), ID(rng.Uint64())}[rng.Intn(7)]
		},
	}
	for name, gen := range families {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var x IDIndex
			want := make(map[ID]int)
			var order []ID
			check := func(id ID) {
				t.Helper()
				got, ok := x.Lookup(id)
				if idx, in := want[id]; ok != in || (in && got != idx) {
					t.Fatalf("%s seed %d: Lookup(%d) = %d, %v after %d inserts; the map says %d, %v", name, seed, uint64(id), got, ok, len(order), idx, in)
				}
			}
			check(0)
			for i := 0; i < 3000; i++ { // through nine doublings from 8 slots
				id := gen(rng, i)
				_, had := want[id]
				idx, added := x.Insert(id)
				if added == had {
					t.Fatalf("%s seed %d: Insert(%d) added = %v, but the map had it: %v", name, seed, uint64(id), added, had)
				}
				if !had {
					want[id] = len(order)
					order = append(order, id)
				}
				if idx != want[id] || x.n != len(order) {
					t.Fatalf("%s seed %d: Insert(%d) = %d with Len %d, want %d with %d", name, seed, uint64(id), idx, x.n, want[id], len(order))
				}
				// Old entries keep their index; near misses stay misses.
				check(order[rng.Intn(len(order))])
				check(id + 1)
				check(ID(rng.Uint64()))
			}
			for _, id := range order {
				check(id)
			}
			x.Reset()
			if _, ok := x.Lookup(order[0]); ok || x.n != 0 {
				t.Fatalf("%s seed %d: Reset left %d entries behind", name, seed, x.n)
			}
			if idx, added := x.Insert(order[len(order)-1]); idx != 0 || !added {
				t.Fatalf("%s seed %d: first Insert after Reset = %d, %v, want 0, true", name, seed, idx, added)
			}
		}
	}
}
