package membudget

import "testing"

func TestUnlimitedBudget(t *testing.T) {
	for _, b := range []Budget{{}, New(0), New(-5)} {
		if b.Limited() || b.Cap() != 0 {
			t.Fatalf("budget %v should be unlimited", b)
		}
	}
	b := New(1000)
	if got := b.Cap(); got != 1000 || !b.Limited() {
		t.Fatalf("Cap = %d, limited %v; want 1000 and limited", got, b.Limited())
	}
}

func TestSpillStore(t *testing.T) {
	var nilS *SpillStore
	nilS.Read(10)
	if nilS.BytesRead() != 0 {
		t.Fatalf("nil spill store should be a no-op")
	}
	s := &SpillStore{}
	s.Read(64)
	s.Read(128)
	if s.BytesRead() != 192 {
		t.Fatalf("spill accounting wrong: read %d", s.BytesRead())
	}
}
