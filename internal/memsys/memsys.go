// Package memsys models the shared-memory machinery of the Xeon+FPGA
// platform (Section 2.1): a pool of 4 MB pages allocated through the Intel
// API, a software-visible array of page addresses on the CPU side, and a
// fully pipelined page table built from BRAMs on the FPGA side that
// translates the accelerator's virtual addresses to 32-bit physical
// addresses in 2 clock cycles.
//
// It also tracks, per 64-byte cache line, which socket wrote last — the
// state the QPI snoop filter keeps and the cause of the asymmetric read
// penalties of Table 1 (Section 2.2). The filter only ever learns about lines
// somebody wrote, so a region tracks the span of its written lines and
// nothing for the rest: allocating one costs its page array, whatever its
// size.
package memsys

import (
	"fmt"

	"fpgapart/platform"
)

// LineBytes is the cache-line granularity of all QPI transfers.
const LineBytes = 64

// Pool is a physical memory pool carved into fixed-size pages.
type Pool struct {
	pageBytes int
	numPages  int
	nextFree  int
}

// NewPool returns a pool of totalBytes physical memory in pages of pageBytes
// (4 MB on the paper's platform).
func NewPool(totalBytes int64, pageBytes int) (*Pool, error) {
	if pageBytes <= 0 || pageBytes%LineBytes != 0 {
		return nil, fmt.Errorf("memsys: page size %d must be a positive multiple of %d", pageBytes, LineBytes)
	}
	if totalBytes < int64(pageBytes) {
		return nil, fmt.Errorf("memsys: pool of %d bytes smaller than one page", totalBytes)
	}
	return &Pool{pageBytes: pageBytes, numPages: int(totalBytes / int64(pageBytes))}, nil
}

// FreePages returns how many pages remain unallocated.
func (p *Pool) FreePages() int { return p.numPages - p.nextFree }

// Alloc allocates enough pages to cover size bytes and returns a Region. The
// physical page frame numbers are handed to the region in allocation order;
// like the Intel API, the software keeps this array and the FPGA's page
// table is populated from it.
func (p *Pool) Alloc(size int64) (*Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("memsys: allocation of %d bytes", size)
	}
	pages := int((size + int64(p.pageBytes) - 1) / int64(p.pageBytes))
	if pages > p.FreePages() {
		return nil, fmt.Errorf("memsys: out of memory: need %d pages, %d free", pages, p.FreePages())
	}
	r := &Region{
		Size:  size,
		Pages: make([]uint32, pages),
	}
	for i := range r.Pages {
		r.Pages[i] = uint32(p.nextFree)
		p.nextFree++
	}
	return r, nil
}

// Region is a virtually contiguous allocation backed by physical pages. The
// virtual address space of a region starts at 0 (each accelerator run works
// on a fixed-size virtual address space, Section 2.1).
type Region struct {
	Size int64
	// Pages[v] is the physical page frame number of virtual page v — the
	// array the CPU-side application keeps for its own address translation.
	Pages []uint32
	// owner holds the last writer of the lines [first, first+len(owner)),
	// the span of everything written so far; a line outside it has never
	// been written and belongs to the CPU socket.
	first int64
	owner []uint8
}

// MarkWritten records socket as the last writer of every cache line in
// [off, off+n). This is the snoop-filter state update: it happens on writes
// only, never on reads (Section 2.2).
func (r *Region) MarkWritten(s platform.Socket, off, n int64) error {
	if off < 0 || n < 0 || off+n > r.Size {
		return fmt.Errorf("memsys: write [%d, %d) outside region of %d bytes", off, off+n, r.Size) //fpgavet:allow hotpath-alloc fault path, never taken per line
	}
	first := off / LineBytes
	last := (off + n + LineBytes - 1) / LineBytes
	if first >= last {
		return nil
	}
	if first < r.first || last > r.first+int64(len(r.owner)) {
		r.track(first, last)
	}
	span := r.owner[first-r.first : last-r.first]
	for i := range span {
		span[i] = uint8(s)
	}
	return nil
}

// track widens the tracked span to include the lines [first, last). A writer
// that marks its whole buffer once (the circuit's output buffer, initialised
// by the CPU before the run) pays for one exact allocation; line-by-line
// writes inside the span never reach this.
func (r *Region) track(first, last int64) {
	if len(r.owner) == 0 {
		r.first = first
	}
	lo, hi := min(first, r.first), max(last, r.first+int64(len(r.owner)))
	owner := make([]uint8, hi-lo) //fpgavet:allow hotpath-alloc once per buffer, not per line: the circuit marks its whole output buffer before the pass
	copy(owner[r.first-lo:], r.owner)
	r.first, r.owner = lo, owner
}

// Owner returns the last writer of the cache line containing off. It is a
// reference: the model reads OwnerCounts, tests read single lines.
func (r *Region) Owner(off int64) platform.Socket {
	if i := off/LineBytes - r.first; i >= 0 && i < int64(len(r.owner)) {
		return platform.Socket(r.owner[i])
	}
	return platform.CPUSocket
}

// OwnerCounts returns how many cache lines each socket wrote last.
func (r *Region) OwnerCounts() (cpu, fpga int) {
	for _, o := range r.owner {
		if platform.Socket(o) == platform.FPGASocket {
			fpga++
		}
	}
	return int((r.Size+LineBytes-1)/LineBytes) - fpga, fpga
}

// PageTableLatency is the pipelined translation latency in FPGA clock
// cycles. The translation takes 2 cycles but is pipelined, so throughput
// remains one address per cycle (Section 2.1).
const PageTableLatency = 2

// PageTable is the FPGA-side page table: a BRAM-resident map from virtual
// page number to physical page frame number. Its size is adjustable so the
// entire main memory can be addressed (the reason the paper builds its own
// instead of using Intel's extended end-point, which caps allocations at
// 2 GB and loses 20% bandwidth).
type PageTable struct {
	pageBytes int
	entries   []uint32
	valid     []bool

	// Translations counts completed look-ups, for throughput verification.
	Translations int64
}

// NewPageTable returns a table with capacity virtual pages of pageBytes each.
func NewPageTable(pageBytes, capacity int) (*PageTable, error) {
	if pageBytes <= 0 || capacity <= 0 {
		return nil, fmt.Errorf("memsys: invalid page table shape %d×%d", capacity, pageBytes)
	}
	return &PageTable{
		pageBytes: pageBytes,
		entries:   make([]uint32, capacity),
		valid:     make([]bool, capacity),
	}, nil
}

// Populate loads the region's physical page numbers into the table, the
// start-up step where the software transmits the 32-bit physical addresses
// of its 4 MB pages to the FPGA. It replaces whatever was loaded before — a
// circuit keeps one table and loads every run's region into it — and zeroes
// the translation counter.
func (t *PageTable) Populate(r *Region) error {
	if len(r.Pages) > len(t.entries) {
		return fmt.Errorf("memsys: region needs %d page table entries, table has %d", len(r.Pages), len(t.entries))
	}
	clear(t.valid)
	t.Translations = 0
	for v, p := range r.Pages {
		t.entries[v] = p
		t.valid[v] = true
	}
	return nil
}

// Translate maps an accelerator virtual address to a physical address. A
// miss (unmapped page) is a fault: the real hardware has no miss path, so the
// simulator surfaces it as an error.
func (t *PageTable) Translate(vaddr int64) (uint64, error) {
	if vaddr < 0 {
		return 0, fmt.Errorf("memsys: negative virtual address %#x", vaddr) //fpgavet:allow hotpath-alloc fault path, never taken per line
	}
	page := vaddr / int64(t.pageBytes)
	if page >= int64(len(t.entries)) || !t.valid[page] {
		return 0, fmt.Errorf("memsys: page fault at virtual address %#x (page %d unmapped)", vaddr, page) //fpgavet:allow hotpath-alloc fault path, never taken per line
	}
	t.Translations++
	off := vaddr % int64(t.pageBytes)
	return uint64(t.entries[page])*uint64(t.pageBytes) + uint64(off), nil
}

// Capacity returns the number of virtual pages the table can map.
func (t *PageTable) Capacity() int { return len(t.entries) }
