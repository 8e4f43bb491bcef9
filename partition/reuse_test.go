package partition

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"fpgapart/internal/simtrace"
	"fpgapart/workload"
)

// reuseKind enumerates the partitioner configurations FuzzPartitionerReuse
// holds one long-lived instance of: the circuit's four modes at 8 bytes, its
// 64-byte rows, both ablations, PAD with and without the CPU fallback, a
// traced circuit, and the CPU partitioner in both hash modes.
const reuseKinds = 14

func reuseOptions(kind uint8, sess *simtrace.Session) (fpga *FPGAOptions, cpu *CPUOptions) {
	base := FPGAOptions{Partitions: 32, Hash: true, PadFraction: 1, FallbackThreads: 1}
	switch kind % reuseKinds {
	case 0:
		base.Format = PadMode
	case 1:
	case 2:
		base.Format, base.Layout = PadMode, ColumnStore
	case 3:
		base.Layout = ColumnStore
	case 4:
		base.Format, base.TupleWidth = PadMode, 64
	case 5:
		base.TupleWidth = 64
	case 6:
		base.DisableForwarding, base.Hash = true, false
	case 7:
		base.DisableWriteCombiner = true
	case 8:
		base.Format, base.DisableWriteCombiner = PadMode, true
	case 9:
		base.Format, base.DisableFallback = PadMode, true
	case 10:
		base.Format, base.Trace = PadMode, sess
	case 11:
		base.Layout, base.Trace = ColumnStore, sess
	case 12:
		return nil, &CPUOptions{Partitions: 32, Hash: true, Threads: 1}
	default:
		return nil, &CPUOptions{Partitions: 32, Threads: 2}
	}
	return &base, nil
}

func newReusePartitioner(t *testing.T, kind uint8, sess *simtrace.Session) (Partitioner, int, workload.Layout) {
	t.Helper()
	fpga, cpu := reuseOptions(kind, sess)
	var (
		p   Partitioner
		err error
	)
	if fpga != nil {
		p, err = NewFPGA(*fpga)
	} else {
		p, err = NewCPU(*cpu)
	}
	if err != nil {
		t.Fatal(err)
	}
	width, layout := reuseShape(fpga)
	return p, width, layout
}

// reconfigureReuse reconfigures p, a partitioner of kind's backend, to kind.
func reconfigureReuse(t *testing.T, p Partitioner, kind uint8, sess *simtrace.Session) (int, workload.Layout) {
	t.Helper()
	fpga, cpu := reuseOptions(kind, sess)
	var err error
	if fpga != nil {
		err = p.(*fpgaPartitioner).Reconfigure(*fpga)
	} else {
		err = p.(*cpuPartitioner).Reconfigure(*cpu)
	}
	if err != nil {
		t.Fatal(err)
	}
	return reuseShape(fpga)
}

// reuseShape is the tuple width and layout a partitioner of fpga (nil: the
// CPU partitioner) reads.
func reuseShape(fpga *FPGAOptions) (int, workload.Layout) {
	width, layout := 8, workload.RowLayout
	if fpga != nil && fpga.TupleWidth != 0 {
		width = fpga.TupleWidth
	}
	if fpga != nil && fpga.Layout == ColumnStore {
		layout = workload.ColumnLayout
	}
	return width, layout
}

// reuseSteps is the length of the sequence a long-lived partitioner sees.
const reuseSteps = 6

// reuseRelation is step's relation of the sequence a long-lived partitioner
// sees: the fuzzed keys; nothing; one key only (the earliest PAD overflow
// there is); the fuzzed keys then one key (an overflow mid-pass); a few
// tuples of that key, which fit; the fuzzed keys again.
func reuseRelation(t *testing.T, data []byte, step, width int, layout workload.Layout) *workload.Relation {
	t.Helper()
	keys := make([]uint32, len(data)/4)
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint32(data[i*4:])
	}
	hot := func(n int) []uint32 { return keysOf(0x5eed, n) }
	ks := [reuseSteps][]uint32{keys, nil, hot(256), append(slices.Clone(keys), hot(256)...), hot(2), keys}[step]
	rel, err := workload.FromKeys(ks, width)
	if err != nil {
		t.Fatal(err)
	}
	if layout == workload.ColumnLayout {
		rel = rel.ToColumns()
	}
	return rel
}

// requireSameResult fails unless the long-lived partitioner's outcome is the
// new one's: the same error, or the same partitions word for word with the
// same simulated statistics.
func requireSameResult(t *testing.T, step int, used *Result, uerr error, fresh *Result, ferr error) {
	t.Helper()
	if (uerr == nil) != (ferr == nil) || (uerr != nil && uerr.Error() != ferr.Error()) {
		t.Fatalf("step %d: long-lived partitioner returned %v, a new one %v", step, uerr, ferr)
	}
	if ferr != nil {
		var uf, ff *FallbackError
		if !errors.As(ferr, &ff) || !errors.As(uerr, &uf) {
			t.Fatalf("step %d: %v", step, ferr)
		}
		if uf.Stats != ff.Stats {
			t.Fatalf("step %d: circuit runs differ\n long-lived: %+v\n        new: %+v", step, uf.Stats, ff.Stats)
		}
		return
	}
	if used.Stats != fresh.Stats || used.FellBack() != fresh.FellBack() || used.FPGAWritten() != fresh.FPGAWritten() {
		t.Fatalf("step %d: stats differ\n long-lived: %+v\n        new: %+v", step, used.Stats, fresh.Stats)
	}
	if used.FPGAWritten() && used.Elapsed() != fresh.Elapsed() {
		t.Fatalf("step %d: simulated time %v, on a new partitioner %v", step, used.Elapsed(), fresh.Elapsed())
	}
	if !reflect.DeepEqual(used.fpga, fresh.fpga) {
		t.Fatalf("step %d: circuit outputs differ", step)
	}
	if used.cpu.NumPartitions != fresh.cpu.NumPartitions ||
		!slices.Equal(used.cpu.Data, fresh.cpu.Data) || !slices.Equal(used.cpu.Offsets, fresh.cpu.Offsets) {
		t.Fatalf("step %d: CPU outputs differ", step)
	}
}

// poisonWord is what the tuple words of a released result read after
// Release: a key that is neither the circuit's dummy key nor a small one.
const poisonWord = 0xbad0_5eed_bad0_5eed

// poison is releaseHook in this package's tests. It overwrites every buffer
// a released result hands back, tuple words with poisonWord and offsets,
// bases and counts with -1, the fan-out of the CPU result the Result holds
// by value and every other field of the circuit's Output, which the
// circuit's next run fills, so that a read after Release shows up, and so
// does a call that reads a recycled buffer or field before writing it: its
// result would differ from a new partitioner's.
func poison(r *Result) {
	if r.fpga == nil {
		fill(r.cpu.Data, poisonWord)
		fill(r.cpu.Offsets, -1)
		r.cpu.NumPartitions = -1
		return
	}
	fill(r.fpga.Lines, poisonWord)
	for _, s := range [][]int64{r.fpga.Base, r.fpga.LinesUsed, r.fpga.Counts} {
		fill(s, -1)
	}
	o := r.fpga
	o.NumPartitions, o.TupleWidth, o.DummyKey, o.DummyKeyed = -1, -1, poisonWord>>32, -1
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

func init() { releaseHook = poison }

// FuzzPartitionerReuse is differential fuzzing of partitioner reuse. A
// partitioner keeps what it built — the circuit's datapath, the CPU
// partitioner's scratch — from call to call, and the buffers of the results
// released to it. Nibble step of reconf, when odd, reconfigures it in place
// before step, to the configuration of its backend that the nibble's upper
// three bits pick. Bit step of release decides whether step's result is
// released (and poisoned, see poison), at the start of the next step and
// after its reconfiguration, so that a buffer of the old configuration may
// back the new one's run. Whatever the previous calls were, the next one
// must return what a new partitioner returns: the identical result or the
// identical error, and never a panic past ErrSimulatorFault.
func FuzzPartitionerReuse(f *testing.F) {
	seed := make([]byte, 4*400)
	for i := range seed {
		seed[i] = byte(i * 131 >> (i % 5))
	}
	for kind := uint8(0); kind < reuseKinds; kind++ {
		f.Add(kind, uint8(0b101101), uint32(0), seed)
		f.Add(kind, uint8(0xff), uint32(0x975311), seed)
	}
	f.Add(uint8(0), uint8(0xff), uint32(0), []byte{})
	f.Add(uint8(9), uint8(0xff), uint32(0x0f0f0f), bytes.Repeat([]byte{1, 0, 0, 0}, 300))
	f.Add(uint8(1), uint8(0), uint32(0), seed)
	f.Add(uint8(12), uint8(0xff), uint32(0x111111), seed)
	f.Fuzz(func(t *testing.T, kind, release uint8, reconf uint32, data []byte) {
		if len(data) > 1<<12 {
			t.Skip("bound the per-input work")
		}
		kind %= reuseKinds
		usedSess, freshSess := simtrace.NewSession(), simtrace.NewSession()
		used, width, layout := newReusePartitioner(t, kind, usedSess)
		var held *Result // the previous step's result
		for step := 0; step < reuseSteps; step++ {
			if r := uint8(reconf >> (4 * step) & 0xf); r&1 == 1 {
				if pick := r >> 1; kind < 12 { // the circuit's configurations, or the CPU's two
					kind = (kind + 1 + pick) % 12
				} else {
					kind = 12 + (kind+1+pick)%2
				}
				width, layout = reconfigureReuse(t, used, kind, usedSess)
			}
			if held != nil && release>>(step-1)&1 == 1 {
				held.Release()
			}
			rel := reuseRelation(t, data, step, width, layout)
			fresh, _, _ := newReusePartitioner(t, kind, freshSess)
			ur, uerr := used.Partition(rel)
			fr, ferr := fresh.Partition(rel)
			if errors.Is(ferr, ErrSimulatorFault) {
				t.Fatalf("step %d: %v", step, ferr)
			}
			requireSameResult(t, step, ur, uerr, fr, ferr)
			held = ur
		}
		var um, fm bytes.Buffer
		if err := usedSess.Metrics.Snapshot().WriteJSON(&um); err != nil {
			t.Fatal(err)
		}
		if err := freshSess.Metrics.Snapshot().WriteJSON(&fm); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(um.Bytes(), fm.Bytes()) {
			t.Fatalf("metrics of the long-lived partitioner differ from the new ones'\n long-lived: %s\n        new: %s", um.Bytes(), fm.Bytes())
		}
	})
}

// TestCPUPartitionerSharedByGoroutines: the CPU partitioner keeps one scratch
// for its next call, and several goroutines may call it at once while a
// goroutine of its own releases every result they are done with; each must
// get the result a partitioner of its own returns (run with -race).
func TestCPUPartitionerSharedByGoroutines(t *testing.T) {
	shared, err := NewCPU(CPUOptions{Partitions: 64, Hash: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, calls = 4, 25
	done, released := make(chan *Result), make(chan struct{})
	go func() {
		defer close(released)
		for r := range done {
			r.Release()
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		rel, err := workload.NewGenerator(int64(g)).Relation(workload.Random, 8, 500+300*g)
		if err != nil {
			t.Fatal(err)
		}
		own, err := NewCPU(CPUOptions{Partitions: 64, Hash: true, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := own.Partition(rel)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				got, err := shared.Partition(rel)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got.cpu.Data, want.cpu.Data) || !slices.Equal(got.cpu.Offsets, want.cpu.Offsets) {
					t.Errorf("goroutine %d call %d: shared partitioner's output differs from a private one's", g, i)
					return
				}
				done <- got
			}
		}()
	}
	wg.Wait()
	close(done)
	<-released
}

// TestFPGAPartitionerReleasedByAnotherGoroutine is the FPGA twin: one
// goroutine partitions relations of several sizes on one circuit while
// another checks every result against a new partitioner's and releases it,
// which the circuit may be running (run with -race).
func TestFPGAPartitionerReleasedByAnotherGoroutine(t *testing.T) {
	opts := FPGAOptions{Partitions: 64, Hash: true, Format: PadMode, PadFraction: 1}
	var rels []*workload.Relation
	var wants []*Result
	for g := 0; g < 4; g++ {
		rel, err := workload.NewGenerator(int64(g)).Relation(workload.Random, 8, 500+300*g)
		if err != nil {
			t.Fatal(err)
		}
		own, err := NewFPGA(opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := own.Partition(rel)
		if err != nil {
			t.Fatal(err)
		}
		rels, wants = append(rels, rel), append(wants, want)
	}
	shared, err := NewFPGA(opts)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 40
	results := make(chan *Result)
	go func() {
		defer close(results)
		for i := 0; i < calls; i++ {
			got, err := shared.Partition(rels[i%len(rels)])
			if err != nil {
				t.Error(err)
				return
			}
			results <- got
		}
	}()
	i := 0
	for got := range results {
		if want := wants[i%len(wants)]; !reflect.DeepEqual(got.fpga, want.fpga) || got.Stats != want.Stats {
			t.Errorf("call %d: the shared circuit's output differs from a new one's", i)
		}
		got.Release()
		i++
	}
}

// TestReadAfterReleaseShowsUp: Release hands the buffers over at once, so a
// result read after it no longer holds its partitions — here, because the
// test-only poison overwrote them.
func TestReadAfterReleaseShowsUp(t *testing.T) {
	rel, err := workload.NewGenerator(3).Relation(workload.Random, 8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := NewCPU(CPUOptions{Partitions: 16, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	fpga, err := NewFPGA(FPGAOptions{Partitions: 16, Hash: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Partitioner{cpu, fpga} {
		res, err := p.Partition(rel)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.TotalTuples(); n != 1000 {
			t.Fatalf("%s: %d tuples before Release, want 1000", p.Name(), n)
		}
		res.Release()
		if n := res.TotalTuples(); n == 1000 {
			t.Errorf("%s: the released result still reads its %d tuples", p.Name(), n)
		}
	}
}

// TestReleaseIsIdempotentAndSkipsFallbacks: a second Release of a result
// hands nothing back — were its buffers kept twice, the partitioner's next
// two results would share them — and Release of a fallback result, whose
// CPU partitioner is gone, is a no-op that leaves its partitions readable.
func TestReleaseIsIdempotentAndSkipsFallbacks(t *testing.T) {
	gen := workload.NewGenerator(5)
	var rels []*workload.Relation
	for i := 0; i < 3; i++ {
		rel, err := gen.Relation(workload.Random, 8, 2000)
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	for _, kind := range []uint8{0, 1, 12} { // PAD and HIST circuits, the CPU
		p, _, _ := newReusePartitioner(t, kind, nil)
		res, err := p.Partition(rels[0])
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		res.Release()
		got := make([]*Result, 2)
		errs := make([]error, 2)
		for i := range got {
			got[i], errs[i] = p.Partition(rels[1+i])
		}
		for i := range got {
			fresh, _, _ := newReusePartitioner(t, kind, nil)
			want, err := fresh.Partition(rels[1+i])
			requireSameResult(t, i, got[i], errs[i], want, err)
		}
	}

	p, err := NewFPGA(FPGAOptions{Partitions: 16, Hash: true, Format: PadMode, FallbackThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := workload.FromKeys(keysOf(0x5eed, 512), 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Partition(hot)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBack() {
		t.Fatal("512 tuples of one key did not overflow a PAD partition")
	}
	before := checksum(res)
	res.Release()
	if n, sum := res.TotalTuples(), checksum(res); n != 512 || sum != before {
		t.Fatalf("the released fallback result reads %d tuples, checksum %#x; want 512 and %#x", n, sum, before)
	}
}

// keysOf returns n copies of key.
func keysOf(key uint32, n int) []uint32 {
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = key
	}
	return keys
}

// checksum sums PartitionChecksum over r's partitions.
func checksum(r *Result) uint32 {
	var sum uint32
	for p := 0; p < r.NumPartitions(); p++ {
		sum += r.PartitionChecksum(p)
	}
	return sum
}
