// Package workload generates the relations and key distributions used in the
// paper's evaluation (Sections 3.2 and 5): linear, random, grid and reverse
// grid key distributions, Zipf-skewed foreign keys, and Workloads A–E of
// Table 4. Relations are flat []uint64 buffers in either row (RID) or column
// (VRID) layout so that both the CPU partitioner and the FPGA simulator can
// scan them as streams of 64-byte cache lines.
package workload

import (
	"fmt"
)

// Layout describes how tuples are materialized in memory (Section 4.5).
type Layout int

const (
	// RowLayout ("RID" mode): tuples reside as <key, payload> records.
	RowLayout Layout = iota
	// ColumnLayout ("VRID" mode): keys and payloads are stored in separate
	// arrays, associated only by position. The FPGA partitioner reads only
	// the key array and appends a virtual record ID.
	ColumnLayout
)

func (l Layout) String() string {
	switch l {
	case RowLayout:
		return "RID"
	case ColumnLayout:
		return "VRID"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Tuple widths supported by the partitioner circuit (Section 4.4).
const (
	Width8  = 8
	Width16 = 16
	Width32 = 32
	Width64 = 64
)

// CacheLineBytes is the granularity at which the Xeon+FPGA platform moves
// data over QPI and the unit the partitioner circuit consumes per cycle.
const CacheLineBytes = 64

// Relation is an in-memory relation of fixed-width tuples.
//
// In RowLayout, Data holds NumTuples records of Width bytes each; the first
// 4 bytes of every record are the key (matching the <4B key, 4B payload>
// scheme of the paper for 8-byte tuples; wider tuples pad the payload). In
// ColumnLayout, Keys holds the key column and Payloads the payload column.
type Relation struct {
	Layout    Layout
	Width     int // tuple width in bytes: 8, 16, 32 or 64
	NumTuples int

	// Data is the row-layout buffer; one tuple occupies Width/8 words.
	// The key of tuple i is uint32(Data[i*stride]).
	Data []uint64

	// Keys and Payloads are the column-layout buffers.
	Keys     []uint32
	Payloads []uint32
}

// Stride returns the number of 64-bit words per tuple in row layout.
func (r *Relation) Stride() int { return r.Width / 8 }

// Key returns the 4-byte join key of tuple i under either layout.
func (r *Relation) Key(i int) uint32 {
	if r.Layout == ColumnLayout {
		return r.Keys[i]
	}
	return uint32(r.Data[i*r.Stride()])
}

// Payload returns the 4-byte payload of tuple i under either layout. For row
// layout the payload is the upper half of the first word.
func (r *Relation) Payload(i int) uint32 {
	if r.Layout == ColumnLayout {
		return r.Payloads[i]
	}
	return uint32(r.Data[i*r.Stride()] >> 32)
}

// NewRelation allocates an empty relation with the given shape. Width must be
// one of 8, 16, 32, 64. The caller fills keys via SetTuple or the generators
// in this package.
func NewRelation(layout Layout, width, numTuples int) (*Relation, error) {
	switch width {
	case Width8, Width16, Width32, Width64:
	default:
		return nil, fmt.Errorf("workload: unsupported tuple width %d (want 8, 16, 32 or 64)", width)
	}
	if numTuples < 0 {
		return nil, fmt.Errorf("workload: negative tuple count %d", numTuples)
	}
	r := &Relation{Layout: layout, Width: width, NumTuples: numTuples}
	if layout == ColumnLayout {
		r.Keys = make([]uint32, numTuples)
		r.Payloads = make([]uint32, numTuples)
	} else {
		r.Data = make([]uint64, numTuples*width/8)
	}
	return r, nil
}

// SetTuple stores key and payload into tuple slot i. For row layouts wider
// than 8 bytes the padding words are left zero, mirroring the fixed record
// shapes the circuit configurations expect.
func (r *Relation) SetTuple(i int, key, payload uint32) {
	if r.Layout == ColumnLayout {
		r.Keys[i] = key
		r.Payloads[i] = payload
		return
	}
	r.Data[i*r.Stride()] = uint64(payload)<<32 | uint64(key)
}

// Clone returns a deep copy of the relation; generators hand out relations
// that experiments mutate (partitioning is destructive on the output side,
// never on the input, but joins re-partition with different fan-outs).
func (r *Relation) Clone() *Relation {
	c := *r
	if r.Data != nil {
		c.Data = append([]uint64(nil), r.Data...)
	}
	if r.Keys != nil {
		c.Keys = append([]uint32(nil), r.Keys...)
	}
	if r.Payloads != nil {
		c.Payloads = append([]uint32(nil), r.Payloads...)
	}
	return &c
}

// ToColumns converts a row-layout relation into a column-layout clone. Used
// by the VRID experiments, which assume a column store.
func (r *Relation) ToColumns() *Relation {
	c := &Relation{Layout: ColumnLayout, Width: r.Width, NumTuples: r.NumTuples}
	c.Keys = make([]uint32, r.NumTuples)
	c.Payloads = make([]uint32, r.NumTuples)
	for i := 0; i < r.NumTuples; i++ {
		c.Keys[i] = r.Key(i)
		c.Payloads[i] = r.Payload(i)
	}
	return c
}
