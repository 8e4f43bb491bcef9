package memsys

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"fpgapart/platform"
)

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(100); err == nil {
		t.Error("pool smaller than a page accepted")
	}
}

func TestAllocConsumesPages(t *testing.T) {
	p, err := NewPool(64 << 20) // 16 pages
	if err != nil {
		t.Fatal(err)
	}
	if p.FreePages() != 16 {
		t.Fatalf("FreePages = %d, want 16", p.FreePages())
	}
	r, err := p.Alloc(9 << 20) // needs 3 pages
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Pages) != 3 {
		t.Errorf("region pages = %d, want 3", len(r.Pages))
	}
	if p.FreePages() != 13 {
		t.Errorf("FreePages = %d, want 13", p.FreePages())
	}
	if _, err := p.Alloc(1 << 30); err == nil {
		t.Error("oversized allocation accepted")
	}
	if _, err := p.Alloc(0); err == nil {
		t.Error("zero allocation accepted")
	}
}

func TestMarkWrittenAndOwner(t *testing.T) {
	p, _ := NewPool(64 << 20)
	r, _ := p.Alloc(1 << 20)
	// Fresh regions belong to the CPU socket (value 0).
	if r.Owner(0) != platform.CPUSocket {
		t.Errorf("fresh owner = %v", r.Owner(0))
	}
	if err := r.MarkWritten(platform.FPGASocket, 64, 128); err != nil {
		t.Fatal(err)
	}
	if r.Owner(0) != platform.CPUSocket {
		t.Error("line 0 should remain CPU-owned")
	}
	if r.Owner(64) != platform.FPGASocket || r.Owner(191) != platform.FPGASocket {
		t.Error("written lines should be FPGA-owned")
	}
	if r.Owner(192) != platform.CPUSocket {
		t.Error("line after write should remain CPU-owned")
	}
	cpu, fpga := r.OwnerCounts()
	if fpga != 2 || cpu != (1<<20)/64-2 {
		t.Errorf("OwnerCounts = %d, %d", cpu, fpga)
	}
}

func TestMarkWrittenPartialLine(t *testing.T) {
	p, _ := NewPool(64 << 20)
	r, _ := p.Alloc(1 << 20)
	// A 1-byte write dirties the whole containing line (coherence is
	// line-granular).
	if err := r.MarkWritten(platform.FPGASocket, 100, 1); err != nil {
		t.Fatal(err)
	}
	if r.Owner(64) != platform.FPGASocket {
		t.Error("partial write should mark the containing line")
	}
}

func TestMarkWrittenBounds(t *testing.T) {
	p, _ := NewPool(64 << 20)
	r, _ := p.Alloc(1 << 20)
	if err := r.MarkWritten(platform.CPUSocket, -1, 10); err == nil {
		t.Error("negative offset accepted")
	}
	if err := r.MarkWritten(platform.CPUSocket, 0, 2<<20); err == nil {
		t.Error("overlong write accepted")
	}
}

func TestPageTablePopulateAndTranslate(t *testing.T) {
	p, _ := NewPool(64 << 20)
	r, _ := p.Alloc(8 << 20)
	pt, err := NewPageTable(16)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Capacity() != 16 {
		t.Errorf("Capacity = %d", pt.Capacity())
	}
	if err := pt.Populate(r); err != nil {
		t.Fatal(err)
	}
	// The FPGA's translation must agree, on every address, with a look-up
	// into the page array the CPU side keeps.
	f := func(raw uint32) bool {
		va := int64(raw) % (8 << 20)
		fa, err := pt.Translate(va)
		return err == nil && fa == uint64(r.Pages[va>>22])<<22+uint64(va&(4<<20-1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPageTablePopulateReplaces: a table loaded with a second, smaller region
// maps that region only.
func TestPageTablePopulateReplaces(t *testing.T) {
	p, _ := NewPool(64 << 20)
	big, _ := p.Alloc(16 << 20)
	small, _ := p.Alloc(4 << 20)
	pt, _ := NewPageTable(8)
	if err := pt.Populate(big); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Translate(12 << 20); err != nil {
		t.Fatal(err)
	}
	if err := pt.Populate(small); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Translate(12 << 20); err == nil {
		t.Error("page of the previous region still mapped")
	}
	fa, err := pt.Translate(100)
	if ca := uint64(small.Pages[0])<<22 + 100; err != nil || fa != ca {
		t.Errorf("new region translates to %#x (%v), its page array says %#x", fa, err, ca)
	}
}

func TestPageTableFaults(t *testing.T) {
	pt, _ := NewPageTable(4)
	if _, err := pt.Translate(0); err == nil {
		t.Error("unmapped page translated")
	}
	if _, err := pt.Translate(-5); err == nil {
		t.Error("negative address translated")
	}
	if _, err := pt.Translate(1 << 40); err == nil {
		t.Error("beyond-capacity address translated")
	}
}

func TestPageTableTooSmallForRegion(t *testing.T) {
	p, _ := NewPool(64 << 20)
	r, _ := p.Alloc(16 << 20) // 4 pages
	pt, _ := NewPageTable(2)
	if err := pt.Populate(r); err == nil {
		t.Error("populate into undersized table accepted")
	}
}

func TestNewPageTableValidation(t *testing.T) {
	if _, err := NewPageTable(0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestPageTableLatencyConstant(t *testing.T) {
	// Section 2.1: translation takes 2 cycles but is pipelined.
	if PageTableLatency != 2 {
		t.Errorf("PageTableLatency = %d, want 2", PageTableLatency)
	}
}

// TestOwnerSpanAgreesWithDenseMap is the property of the tracked span: for
// random MarkWritten sequences by either socket — also writes below the
// first line written, and regions of exactly one page — Owner of every line
// and OwnerCounts read what a map with one entry per line of the region
// reads.
func TestOwnerSpanAgreesWithDenseMap(t *testing.T) {
	const scale = 1 << 16 // small regions keep the dense reference cheap
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		size := int64(PageBytes) // every fourth region is exactly one page
		if trial%4 != 0 {
			size = 1 + rng.Int63n(3*scale)
		}
		p, err := NewPool(PageBytes)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		lines := (size + LineBytes - 1) / LineBytes
		dense := make([]platform.Socket, lines)
		// Start high, so that later writes land below the tracked span.
		hi := size - size/8
		for w := 0; w < 12; w++ {
			s := platform.Socket(rng.Intn(2))
			off := rng.Int63n(size)
			if w == 0 {
				off = hi - 1
			}
			n := rng.Int63n(min(size-off, 40*LineBytes) + 1)
			if err := r.MarkWritten(s, off, n); err != nil {
				t.Fatal(err)
			}
			for l := off / LineBytes; l < (off+n+LineBytes-1)/LineBytes; l++ {
				dense[l] = s
			}
			var cpu, fpga int
			for l, want := range dense {
				if got := r.Owner(int64(l) * LineBytes); got != want {
					t.Fatalf("trial %d write %d: line %d owned by %v, dense map says %v", trial, w, l, got, want)
				}
				if want == platform.FPGASocket {
					fpga++
				} else {
					cpu++
				}
			}
			if gc, gf := r.OwnerCounts(); gc != cpu || gf != fpga {
				t.Fatalf("trial %d write %d: OwnerCounts = %d, %d, dense map counts %d, %d", trial, w, gc, gf, cpu, fpga)
			}
		}
	}
}

// TestAllocCostsNoOwnerMap: a region learns about lines when they are
// written; allocating 4 MiB of it costs the page array and the struct.
func TestAllocCostsNoOwnerMap(t *testing.T) {
	p, err := NewPool(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	var r *Region
	least := uint64(1 << 62) // of a few tries: the runtime allocates on its own now and then
	for try := 0; try < 5; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err = p.Alloc(4 << 20)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 1<<10 {
		t.Errorf("Alloc of a 4 MiB region allocated %d bytes before its first write, want < 1 KiB", least)
	}
	if cpu, fpga := r.OwnerCounts(); cpu != (4<<20)/LineBytes || fpga != 0 {
		t.Errorf("fresh region: OwnerCounts = %d, %d", cpu, fpga)
	}
}
