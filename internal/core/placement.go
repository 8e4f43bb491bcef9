package core

import (
	"slices"

	"fpgapart/internal/hashutil"
	"fpgapart/internal/memsys"
	"fpgapart/platform"
)

// logChunk is the store log's hand-off unit in entries, and logChunks the
// size of the hand-off ring. A run whose input fills more than one chunk
// with lines places on a second goroutine, chunk by chunk, while the cycle
// loop runs (which waits once the placement is logChunks behind: the
// placement lags while full lines arrive and catches up on the flush's
// partial lines, which cost it less); any other run places inline after
// the passes. A serving job (≤ 2^14 eight-byte tuples: ≤ 2 048 full lines)
// stays on the caller's goroutine.
const (
	logChunk  = 4096
	logChunks = 8
)

// placementHook, set by tests only (export_test.go), runs on a placement
// goroutine after every chunk it receives.
var placementHook func()

// placer is the placement side of a run: the software write combiner of the
// paper's Code 2 (Section 3), which moves the words the cycle loop only
// times. The store log drives it: each entry asks its lane for the lane's
// next line. Tuple j travels in lane j mod lanes, as every lane group but
// the last is full, so a lane gathers its own tuples in input order into
// its (lane, partition) bank lines, each into the slot the pre-pass gave
// it, until the pre-pass says one fills: the line its combiner emitted.
// The write-back never reorders one lane, so that line is the entry's.
// Once a lane's input is used up, its entries are the flush's partial lines
// in address order, found in the combiners' end-of-pass fill image. Each
// entry is also where the output page is looked up and the line marked
// FPGA-written. Output.Lines is a pure function of the input and the log.
type placer struct {
	// The run's input and shape (words: len(Output.Lines), set by allocate).
	data         []uint64 // a RID input's words, bounded by its length
	vrid, single bool
	hash         bool
	radix        uint
	lanes, wpt   int
	parts        int
	total, words int64

	// The pre-pass's image, read-only while the passes run: every tuple's
	// flag byte and the fill rate of (lane, partition) at lane*parts+p.
	flags, image []uint8

	bank  []uint64 // bank line of (lane, partition) at (lane*parts+p)*8
	lines []uint64

	// The shared memory the lines go to (set by allocate), and the output
	// page lookups that found their page.
	region       *memsys.Region
	ptable       *memsys.PageTable
	outOff       int64
	translations int64

	// Each lane's cursors: its next tuple, its input (the RLE run holding
	// the tuple) and its flush scan address.
	pos     [8]int64
	src     [8]source
	flushAt [8]int

	// The log: the chunk the cycle loop writes and whether a goroutine
	// reads it; as read, the chunk, the position in it and whether a chunk
	// follows. The loop writes log on every stored line: the pads keep it
	// off the cache lines a placement goroutine writes and reads.
	_     [64]byte
	log   []uint64
	async bool
	_     [64]byte
	cur   []uint64
	at    int
	ended bool

	// The hand-off ring, built by the first async run: chunks travel full →
	// placement goroutine → free → cycle loop, and nil ends the log. done
	// carries the goroutine's end: nil, or the panic it recovered.
	full, free chan []uint64
	done       chan any

	one [1]uint64 // the <key, VRID> word being placed
}

// reset loads the run's input, shape, flags and fill image; the log is
// inline until start says otherwise.
func (pl *placer) reset(r *run, image []uint8) {
	pl.data = nil
	if r.rel != nil {
		pl.data = slices.Clip(r.rel.Data)
	}
	pl.vrid, pl.single, pl.hash, pl.radix = r.cfg.Layout == VRID, r.cfg.DisableWriteCombiner, r.cfg.Hash, r.radix
	pl.lanes, pl.wpt, pl.parts = r.lanes, r.wpt, r.cfg.NumPartitions
	pl.total, pl.flags, pl.image, pl.translations = r.total, r.flags, image, 0
	pl.cur, pl.at, pl.ended = nil, 0, true
	// The log's first chunk stays with the circuit; it grows to what a run
	// can log, up to a chunk: a line per tuple at most, or a full line per
	// lane group plus a flush line per lane and partition.
	need := r.total
	if !pl.single {
		need = min(need, r.total/int64(r.lanes)+int64(r.lanes*pl.parts))
	}
	if need = min(need, logChunk); int64(cap(pl.log)) < need {
		pl.log = make([]uint64, 0, need)
	}
	pl.log = pl.log[:0]
	src := r.newSource()
	for l := range pl.pos {
		pl.pos[l], pl.src[l], pl.flushAt[l] = int64(l), src, 0
	}
}

// release drops the run's input, image, banks, output and shared memory.
func (pl *placer) release() {
	pl.data, pl.flags, pl.image, pl.bank, pl.lines, pl.cur = nil, nil, nil, nil, nil, nil
	pl.region, pl.ptable = nil, nil
	pl.src = [8]source{}
}

// start hands the log to a placement goroutine if the input's total tuples
// alone fill more than one chunk with lines. The goroutine allocates and
// dummy-fills the output while the partition pass runs, then consumes the
// log as it is written.
func (pl *placer) start(total int64) {
	if !pl.single {
		total /= int64(pl.lanes) // a line holds a tuple per lane
	}
	if total <= logChunk {
		return
	}
	if pl.full == nil { // full holds the whole ring and the end marker
		pl.full, pl.free, pl.done = make(chan []uint64, logChunks+1), make(chan []uint64, logChunks), make(chan any, 1)
		for i := 1; i < logChunks; i++ {
			pl.free <- make([]uint64, 0, logChunk)
		}
	}
	pl.async, pl.ended = true, false
	go func() {
		defer func() {
			// After a panic, read the log to its end so that every chunk
			// returns to the ring; the cycle loop's goroutine raises it.
			p := recover()
			for pl.next() {
			}
			pl.done <- p
		}()
		pl.run()
	}()
}

// record appends one store-log entry: the destination word offset of a
// committed line (a tuple, in the no-write-combiner ablation) and its lane.
//
//fpgavet:hotpath
func (pl *placer) record(dst int64, lane uint8) {
	if pl.async && len(pl.log) == logChunk {
		pl.full <- pl.log
		pl.log = (<-pl.free)[:0]
	}
	pl.log = append(pl.log, uint64(dst)<<3|uint64(lane))
}

// end ends the log after the passes and returns Output.Lines if they
// succeeded: an inline run places here (a failed one only commits its
// lines, for the page lookups its Stats count), an async run waits for its
// goroutine.
func (pl *placer) end(ok bool) []uint64 {
	if pl.async {
		pl.stop()
	} else {
		pl.cur, pl.at = pl.log, 0
		if ok {
			pl.run()
		} else {
			for e, more := pl.entry(); more; e, more = pl.entry() {
				pl.commit(int64(e >> 3))
			}
		}
	}
	if !ok {
		return nil
	}
	return pl.lines
}

// stop sends an async run's last chunk and the end marker, waits for the
// placement goroutine and raises here a panic it recovered. partition
// defers it, so a panic in the cycle loop stops the goroutine too.
func (pl *placer) stop() {
	if !pl.async {
		return
	}
	pl.async = false
	pl.full <- pl.log
	pl.full <- nil
	p := <-pl.done
	pl.log = (<-pl.free)[:0] // every chunk is back in the ring
	if p != nil {
		panic(p)
	}
}

// run allocates the bank lines and the output, fills the output with dummy
// keys (never-written slots — PAD headroom, a flushed line's unused slots —
// read as dummies, like bitstream-initialized memory) and places the log.
func (pl *placer) run() {
	if !pl.single {
		pl.bank = make([]uint64, pl.lanes*pl.parts*8)
	}
	pl.lines = make([]uint64, pl.words)
	if len(pl.lines) > 0 {
		pl.lines[0] = dummyWord
		for n := 1; n < len(pl.lines); n *= 2 {
			copy(pl.lines[n:], pl.lines[:n])
		}
	}
	pl.place()
}

// place places the log, entry by entry; it stops where the log ends early
// (a PAD overflow).
//
//fpgavet:hotpath
func (pl *placer) place() {
	for e, ok := pl.entry(); ok; e, ok = pl.entry() {
		lane, d := int(e&7), int64(e>>3)
		pl.commit(d)
		if pl.single {
			_, words := pl.tuple(lane)
			copy(pl.lines[d:], words)
		} else {
			pl.line(lane, d)
		}
	}
}

// commit looks up the output page of the line at word d and marks the line
// FPGA-written, the snoop filter state that later penalizes the CPU's
// build+probe (Section 2.2). The ablation's tuple-granular writes mark
// their line without a lookup. store bounded the line against its
// partition's region, so both succeed.
//
//fpgavet:hotpath
func (pl *placer) commit(d int64) {
	off := pl.outOff + d&^7*8
	_ = pl.region.MarkWritten(platform.FPGASocket, off, 64)
	if pl.single {
		return
	}
	if _, err := pl.ptable.Translate(off); err == nil {
		pl.translations++
	}
}

// line writes lane's next line to d: its tuples, each into the slot of its
// (lane, partition) bank line that the pre-pass gave it, until the one
// whose flag says the line is full or, once its input is used up, its next
// non-empty bank line, which the dummy fill pads.
//
//fpgavet:hotpath
func (pl *placer) line(lane int, d int64) {
	for pl.pos[lane] < pl.total {
		f := pl.flags[pl.pos[lane]]
		part, words := pl.tuple(lane)
		b := lane*pl.parts + int(part)
		bank := pl.bank[b*8 : b*8+8]
		slot := int(f&flagSlot) * pl.wpt
		for w, v := range words { // 1–8 words: cheaper than a memmove call
			bank[slot+w] = v
		}
		if f&flagDone != 0 {
			*(*[8]uint64)(pl.lines[d:]) = [8]uint64(bank)
			return
		}
	}
	b := lane*pl.parts + pl.flushAt[lane]
	for pl.image[b] == 0 {
		b++
	}
	copy(pl.lines[d:d+int64(int(pl.image[b])*pl.wpt)], pl.bank[b*8:])
	pl.flushAt[lane] = b - lane*pl.parts + 1
}

// tuple returns lane's next input tuple, its partition and its words (the
// key is the first word's low half), and moves the lane's cursor to the
// lane's tuple after it.
//
//fpgavet:hotpath
func (pl *placer) tuple(lane int) (uint32, []uint64) {
	j := pl.pos[lane]
	pl.pos[lane] += int64(pl.lanes)
	words := pl.one[:]
	if pl.vrid {
		pl.one[0] = uint64(j)<<32 | uint64(pl.src[lane].key(j))
	} else {
		words = pl.data[int(j)*pl.wpt : int(j+1)*pl.wpt]
	}
	return hashutil.PartitionIndex32(uint32(words[0]), pl.radix, pl.hash), words
}

// entry returns the next log entry; false once the log has ended.
func (pl *placer) entry() (uint64, bool) {
	for pl.at == len(pl.cur) {
		if !pl.next() {
			return 0, false
		}
		if placementHook != nil {
			placementHook()
		}
	}
	pl.at++
	return pl.cur[pl.at-1], true
}

// next returns the chunk read to the ring and receives the following one;
// false at the end of the log (an inline log is one chunk).
func (pl *placer) next() bool {
	if pl.ended {
		return false
	}
	if pl.cur != nil {
		pl.free <- pl.cur
	}
	pl.cur, pl.at = <-pl.full, 0
	pl.ended = pl.cur == nil
	return !pl.ended
}
