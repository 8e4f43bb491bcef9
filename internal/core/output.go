package core

// Output is the partitioned relation the circuit writes back to shared
// memory: a contiguous array of 64-byte cache lines, with each partition
// occupying a line-aligned region. Partially filled lines (produced by the
// flush, Section 4.2) carry dummy keys in their unused slots; consumers skip
// tuples with the dummy key, exactly as the paper's software does.
type Output struct {
	NumPartitions int
	// TupleWidth is the output tuple width in bytes (8 in VRID mode).
	TupleWidth int
	DummyKey   uint32

	// Lines is the output buffer: 8 words per 64-byte cache line.
	Lines []uint64
	// Base[p] is the first cache line of partition p.
	Base []int64
	// LinesUsed[p] is how many lines of partition p's region were written.
	LinesUsed []int64
	// Counts[p] is the number of input tuples written to partition p,
	// dummy-keyed ones included. In HIST mode this is the histogram; in PAD
	// mode the circuit's offset counters provide it.
	Counts []int64
	// DummyKeyed counts the input tuples whose key is DummyKey: written,
	// they read back as padding, so a reader of the output misses them.
	DummyKeyed int64

	// slab is the run's bookkeeping, one allocation: Base, LinesUsed, Counts
	// and the destination records (Circuit.Recycle takes it back).
	slab []int64
}

// wordsPerTuple returns the output tuple size in 64-bit words.
func (o *Output) wordsPerTuple() int { return o.TupleWidth / 8 }

// TuplesPerLine returns how many output tuples one cache line holds.
func (o *Output) TuplesPerLine() int { return 64 / o.TupleWidth }

// TotalTuples returns the number of tuples written across all partitions.
func (o *Output) TotalTuples() int64 {
	var n int64
	for _, c := range o.Counts {
		n += c
	}
	return n
}

// Partition iterates the valid tuples of partition p in write order, calling
// fn with each tuple's key, 4-byte payload (the VRID in VRID mode) and the
// tuple's words. Dummy-key tuples are skipped. fn must not retain words.
func (o *Output) Partition(p int, fn func(key, payload uint32, words []uint64)) {
	wpt := o.wordsPerTuple()
	tpl := o.TuplesPerLine()
	start := o.Base[p] * 8
	for l := int64(0); l < o.LinesUsed[p]; l++ {
		line := o.Lines[start+l*8 : start+l*8+8]
		for t := 0; t < tpl; t++ {
			words := line[t*wpt : (t+1)*wpt]
			key := uint32(words[0])
			if key == o.DummyKey {
				continue
			}
			fn(key, uint32(words[0]>>32), words)
		}
	}
}
