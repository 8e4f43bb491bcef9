package membudget

import (
	"strings"
	"testing"
)

func TestUnlimitedBudget(t *testing.T) {
	for _, b := range []*Budget{nil, New(0), New(-5)} {
		if b.Limited() || b.Cap() != 0 {
			t.Fatalf("budget %v should be unlimited", b)
		}
		b.MustReserve(ClassBuild, 1<<40)
		b.Release(ClassBuild, 1<<40)
	}
	// The nil budget accounts nothing; a zero-cap budget still accounts.
	var nilB *Budget
	if nilB.HighWater() != 0 {
		t.Fatalf("nil budget should report zero usage")
	}
	b := New(0)
	b.MustReserve(ClassSpill, 100)
	if b.HighWater() != 100 {
		t.Fatalf("zero-cap budget should still account: high %d", b.HighWater())
	}
}

func TestReserveRelease(t *testing.T) {
	b := New(1000)
	if got := b.Cap(); got != 1000 || !b.Limited() {
		t.Fatalf("Cap = %d, limited %v; want 1000 and limited", got, b.Limited())
	}
	b.MustReserve(ClassBuild, 600)
	b.MustReserve(ClassPartition, 400)
	b.Release(ClassPartition, 400)
	// The high-water mark is the peak of what was reserved at once, not the
	// cumulative traffic.
	b.MustReserve(ClassSpill, 300)
	if b.HighWater() != 1000 {
		t.Fatalf("HighWater = %d, want 1000", b.HighWater())
	}
	b.MustReserve(ClassSpill, 200)
	if b.HighWater() != 1100 {
		t.Fatalf("HighWater = %d, want 1100", b.HighWater())
	}
}

func TestMustReserveOvershoots(t *testing.T) {
	b := New(100)
	b.MustReserve(ClassBuild, 300)
	if b.HighWater() != 300 {
		t.Fatalf("MustReserve should account past the cap: high %d", b.HighWater())
	}
}

func TestOverReleasePanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("over-release should panic")
		}
		if !strings.Contains(r.(string), "membudget") {
			t.Fatalf("panic %v should identify the package", r)
		}
	}()
	b := New(100)
	b.MustReserve(ClassBuild, 50)
	b.Release(ClassBuild, 51)
}

func TestClassString(t *testing.T) {
	want := map[Class]string{
		ClassBuild: "build", ClassPartition: "partition", ClassSpill: "spill",
		Class(99): "class(99)",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("Class(%d).String() = %q, want %q", int(c), c.String(), s)
		}
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
