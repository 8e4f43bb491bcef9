package workload

import (
	"testing"
	"testing/quick"
)

func TestNewRelationWidths(t *testing.T) {
	for _, w := range []int{8, 16, 32, 64} {
		r, err := NewRelation(RowLayout, w, 10)
		if err != nil {
			t.Fatalf("NewRelation(width=%d): %v", w, err)
		}
		if got := len(r.Data); got != 10*w/8 {
			t.Errorf("width %d: len(Data) = %d, want %d", w, got, 10*w/8)
		}
		if r.Stride() != w/8 {
			t.Errorf("width %d: stride = %d", w, r.Stride())
		}
	}
}

func TestNewRelationRejectsBadWidth(t *testing.T) {
	for _, w := range []int{0, 4, 12, 128, -8} {
		if _, err := NewRelation(RowLayout, w, 1); err == nil {
			t.Errorf("NewRelation(width=%d) succeeded, want error", w)
		}
	}
	if _, err := NewRelation(RowLayout, 8, -1); err == nil {
		t.Error("NewRelation(n=-1) succeeded, want error")
	}
}

func TestSetGetTupleRoundTrip(t *testing.T) {
	f := func(key, payload uint32) bool {
		for _, w := range []int{8, 16, 32, 64} {
			r, _ := NewRelation(RowLayout, w, 3)
			r.SetTuple(1, key, payload)
			if r.Key(1) != key || r.Payload(1) != payload {
				return false
			}
			// Neighbours untouched.
			if r.Key(0) != 0 || r.Key(2) != 0 {
				return false
			}
		}
		c, _ := NewRelation(ColumnLayout, 8, 3)
		c.SetTuple(2, key, payload)
		return c.Key(2) == key && c.Payload(2) == payload
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r, _ := NewRelation(RowLayout, 8, 4)
	r.SetTuple(0, 7, 9)
	c := r.Clone()
	c.SetTuple(0, 100, 200)
	if r.Key(0) != 7 || r.Payload(0) != 9 {
		t.Error("Clone shares row storage with original")
	}
	col, _ := NewRelation(ColumnLayout, 8, 4)
	col.SetTuple(1, 5, 6)
	cc := col.Clone()
	cc.SetTuple(1, 50, 60)
	if col.Key(1) != 5 || col.Payload(1) != 6 {
		t.Error("Clone shares column storage with original")
	}
}

func TestToColumnsPreservesTuples(t *testing.T) {
	g := NewGenerator(1)
	r, err := g.Relation(Random, 8, 257)
	if err != nil {
		t.Fatal(err)
	}
	c := r.ToColumns()
	if c.Layout != ColumnLayout || c.NumTuples != r.NumTuples {
		t.Fatalf("ToColumns shape: %+v", c)
	}
	for i := 0; i < r.NumTuples; i++ {
		if c.Key(i) != r.Key(i) || c.Payload(i) != r.Payload(i) {
			t.Fatalf("tuple %d differs after ToColumns", i)
		}
	}
}

func TestLayoutString(t *testing.T) {
	if RowLayout.String() != "RID" || ColumnLayout.String() != "VRID" {
		t.Errorf("layout strings: %v %v", RowLayout, ColumnLayout)
	}
	if Layout(9).String() != "Layout(9)" {
		t.Errorf("unknown layout string: %v", Layout(9))
	}
}
