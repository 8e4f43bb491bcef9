package codec

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestRLERoundTrip(t *testing.T) {
	cases := [][]uint32{
		nil,
		{5},
		{1, 1, 1, 1},
		{1, 2, 3, 4},
		{7, 7, 3, 3, 3, 7},
		{0, 0xFFFFFFFF, 0xFFFFFFFF},
	}
	for i, keys := range cases {
		c := CompressRLE(keys)
		if err := c.Validate(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got := c.Decompress()
		if len(got) != len(keys) {
			t.Fatalf("case %d: %d values, want %d", i, len(got), len(keys))
		}
		for j := range keys {
			if got[j] != keys[j] {
				t.Fatalf("case %d: value %d = %d, want %d", i, j, got[j], keys[j])
			}
		}
	}
}

func TestRLERunStructure(t *testing.T) {
	c := CompressRLE([]uint32{4, 4, 4, 9, 9, 4})
	want := []Run{{4, 3}, {9, 2}, {4, 1}}
	if len(c.Runs) != len(want) {
		t.Fatalf("runs: %v", c.Runs)
	}
	for i := range want {
		if c.Runs[i] != want[i] {
			t.Fatalf("run %d = %v, want %v", i, c.Runs[i], want[i])
		}
	}
}

func TestRLERatio(t *testing.T) {
	// 1000 identical values: 1 run (8 B) vs 4000 B raw → 500×.
	keys := make([]uint32, 1000)
	c := CompressRLE(keys)
	if c.Ratio() != 500 {
		t.Errorf("Ratio = %v, want 500", c.Ratio())
	}
	// Unique values: each an 8 B run vs 4 B raw → 0.5×.
	for i := range keys {
		keys[i] = uint32(i)
	}
	if r := CompressRLE(keys).Ratio(); r != 0.5 {
		t.Errorf("unique Ratio = %v, want 0.5", r)
	}
	if (&RLEColumn{}).Ratio() != 0 {
		t.Error("empty column ratio should be 0")
	}
}

func TestRLEValidate(t *testing.T) {
	bad := &RLEColumn{Runs: []Run{{1, 0}}, N: 0}
	if bad.Validate() == nil {
		t.Error("empty run accepted")
	}
	short := &RLEColumn{Runs: []Run{{1, 2}}, N: 3}
	if short.Validate() == nil {
		t.Error("undercounting runs accepted")
	}
}

func TestPropertyRLERoundTrip(t *testing.T) {
	f := func(seed int64, cardRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		card := int(cardRaw) + 1
		n := rng.Intn(3000)
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = uint32(rng.Intn(card))
		}
		rle := CompressRLE(keys)
		if rle.Validate() != nil {
			return false
		}
		return slices.Equal(rle.Decompress(), keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
