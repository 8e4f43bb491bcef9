package simtrace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestBucketBoundaries pins the log2 bucketing at its edges: bucket i ≥ 1
// covers [2^(i-1), 2^i), bucket 0 collects non-positive values.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{255, 8}, {256, 9},
		{1<<20 - 1, 20}, {1 << 20, 21},
		{1<<62 - 1, 62}, {1 << 62, 63},
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bucket's lower bound must map into its own bucket, and the
	// value just below it into the previous one.
	for exp := 1; exp < NumHistogramBuckets; exp++ {
		low := int64(1) << (exp - 1)
		if got := BucketOf(low); got != exp {
			t.Errorf("BucketOf(%d) = %d, want %d", low, got, exp)
		}
		if got := BucketOf(low - 1); got != exp-1 {
			t.Errorf("BucketOf(%d) = %d, want %d", low-1, got, exp-1)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("part.sizes")
	for _, v := range []int64{0, 1, 1, 3, 900} {
		h.Observe(v)
	}
	m, _ := r.Snapshot().Get("part.sizes")
	if m.Value != 5 || m.Max != 900 {
		t.Fatalf("count %d, max %d; want 5 and 900", m.Value, m.Max)
	}
	want := []HistogramBucket{{Exp: 0, Count: 1}, {Exp: 1, Count: 2}, {Exp: 2, Count: 1}, {Exp: 10, Count: 1}}
	if !reflect.DeepEqual(m.Buckets, want) {
		t.Errorf("buckets %v, want %v", m.Buckets, want)
	}
	// Same instance on re-registration.
	if r.Histogram("part.sizes") != h {
		t.Fatal("re-registration returned a different histogram")
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(7)
	var r *Registry
	if r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil histograms")
	}
}

func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hot")
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f per call", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilH.Observe(12345) }); n != 0 {
		t.Fatalf("nil Histogram.Observe allocates %.1f per call", n)
	}
}

func TestHistogramKindClash(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a counter name as a histogram must panic")
		}
	}()
	r.Histogram("x")
}

// TestSnapshotHistogramJSON locks the histogram snapshot line layout and
// that WriteJSONIndent("") + newline equals WriteJSON.
func TestSnapshotHistogramJSON(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b.sizes")
	h.Observe(0)
	h.Observe(5)
	h.Observe(5)
	r.Counter("a.count").Add(3)
	r.Gauge("c.occ").Observe(9)

	snap := r.Snapshot()
	var plain, indented bytes.Buffer
	if err := snap.WriteJSON(&plain); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteJSONIndent(&indented, ""); err != nil {
		t.Fatal(err)
	}
	indented.WriteString("\n")
	if plain.String() != indented.String() {
		t.Fatalf("WriteJSONIndent(\"\") diverges from WriteJSON:\n%q\nvs\n%q", indented.String(), plain.String())
	}
	want := `{"name": "b.sizes", "kind": "histogram", "value": 3, "max": 5, "buckets": [{"exp": 0, "count": 1}, {"exp": 3, "count": 2}]}`
	if !strings.Contains(plain.String(), want) {
		t.Fatalf("snapshot JSON missing histogram line %s:\n%s", want, plain.String())
	}

	var prefixed bytes.Buffer
	if err := snap.WriteJSONIndent(&prefixed, "    "); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(prefixed.String(), "\n")
	if strings.HasPrefix(lines[0], " ") {
		t.Fatalf("first line must not be indented: %q", lines[0])
	}
	for _, l := range lines[1:] {
		if l != "" && !strings.HasPrefix(l, "    ") {
			t.Fatalf("continuation line missing indent: %q", l)
		}
	}
}
