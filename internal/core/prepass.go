package core

import (
	"slices"

	"fpgapart/codec"
	"fpgapart/internal/hashutil"
	"fpgapart/workload"
)

// A tuple's flag byte, written by the pre-pass: what the fill-rate BRAM and
// the forwarding registers of its lane's combiner decide for it (Section
// 4.2, Code 4). None of it depends on when the tuple arrives.
const (
	flagSlot  = 7      // bits 0–2: its slot in its line, the fill rate before it
	flagDone  = 1 << 3 // it fills the last slot: its line goes out
	flagPrev  = 1 << 4 // its partition is the lane's previous tuple's
	flagPrev2 = 1 << 5 // its partition is the lane's second-previous tuple's
)

// prepassBlock is how many tuples the pre-pass hashes at a time (a multiple
// of every lane count, so a block starts in lane 0).
const prepassBlock = 256

// noPart is the partition of a lane's tuple before its first: none.
const noPart = ^uint32(0)

// prepass decides what every tuple of the run does, before the passes
// start: one sweep over the input hashes the keys a block at a time and
// walks each lane's fill-rate slots (tuple j travels in lane j mod lanes),
// leaving every tuple's flag byte, the combiners' end-of-pass fill image
// and, in HIST mode, the histogram. The passes then only clock when things
// happen: a combiner reads its lane's flags against its accept stamps, the
// flush scans the fill image, and the placement side takes slots and line
// ends from the flags. The strawman datapath (DisableWriteCombiner) has no
// fill-rate BRAM and leaves the flags zero.
//
//fpgavet:hotpath
func (r *run) prepass() {
	var parts [prepassBlock]uint32
	var keys [prepassBlock]uint64
	single, hist := r.cfg.DisableWriteCombiner, r.cfg.Format == HIST
	// Bound every read by the input's length: a short relation must fail
	// here, not hash what lies beyond it in the slice's capacity.
	var data []uint64
	var col []uint32
	var rle source
	switch {
	case r.comp != nil:
		rle = r.newSource()
	case r.cfg.Layout == VRID:
		col = slices.Clip(r.rel.Keys)
	default:
		data = slices.Clip(r.rel.Data)
	}
	for at := int64(0); at < r.total; at += prepassBlock {
		n := int(min(prepassBlock, r.total-at))
		blk := parts[:n]
		switch {
		case r.comp != nil:
			r.runPartitions(blk, &rle, at)
		case col != nil:
			for i, k := range col[at : at+int64(n)] {
				keys[i] = uint64(k)
			}
			partitions(blk, keys[:n], r.radix, r.cfg.Hash)
		case r.wpt == 1:
			partitions(blk, data[at:at+int64(n)], r.radix, r.cfg.Hash)
		default:
			for i := range blk {
				keys[i] = data[(int(at)+i)*r.wpt]
			}
			partitions(blk, keys[:n], r.radix, r.cfg.Hash)
		}
		if !single {
			flags := r.flags[at : at+int64(n)]
			for l, cb := range r.comb[:min(r.lanes, n)] {
				cb.walk(blk[l:], flags[l:], r.lanes)
			}
		}
		if hist {
			for _, p := range blk {
				r.hist[p]++
			}
		}
	}
}

// partitions writes the partition of every packed tuple of src (its key is
// the low half of the word) to dst: its radix bits, or its murmur hash's.
//
//fpgavet:hotpath
func partitions(dst []uint32, src []uint64, radix uint, hash bool) {
	mask := uint32(1)<<radix - 1
	if hash {
		hashutil.MurmurBlock(dst, src, 0, mask)
		return
	}
	for i, t := range src {
		dst[i] = uint32(t) & mask
	}
}

// runPartitions writes the partitions of the decompressor's tuples from at
// on to dst, hashing once per run.
//
//fpgavet:hotpath
func (r *run) runPartitions(dst []uint32, s *source, at int64) {
	for i := range dst {
		j := at + int64(i)
		if i == 0 || j-s.at >= int64(s.runs[s.run].Length) {
			dst[i] = hashutil.PartitionIndex32(s.key(j), r.radix, r.cfg.Hash)
			continue
		}
		dst[i] = dst[i-1]
	}
}

// source reads a run's input as the circuit sees it: tuple j's key. The
// decompressor's runs are read through a cursor, so one source's j never
// goes back.
type source struct {
	rel  *workload.Relation // nil for the decompressor's runs
	runs []codec.Run
	wpt  int

	run int   // the run holding the last key read
	at  int64 // that run's first tuple
}

// key returns tuple j's key.
//
//fpgavet:hotpath
func (s *source) key(j int64) uint32 {
	switch {
	case s.rel == nil:
		for j-s.at >= int64(s.runs[s.run].Length) {
			s.at += int64(s.runs[s.run].Length)
			s.run++
		}
		return s.runs[s.run].Value
	case s.rel.Layout == workload.ColumnLayout:
		return s.rel.Keys[j]
	default:
		return uint32(s.rel.Data[int(j)*s.wpt])
	}
}

// newSource returns a source over the run's input at its first tuple.
func (r *run) newSource() source {
	if r.comp != nil {
		return source{runs: r.comp.col.Runs}
	}
	return source{rel: r.rel, wpt: r.wpt}
}
