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
	width, layout := 8, workload.RowLayout
	if fpga != nil {
		p, err = NewFPGA(*fpga)
		if fpga.TupleWidth != 0 {
			width = fpga.TupleWidth
		}
		if fpga.Layout == ColumnStore {
			layout = workload.ColumnLayout
		}
	} else {
		p, err = NewCPU(*cpu)
	}
	if err != nil {
		t.Fatal(err)
	}
	return p, width, layout
}

// reuseRelations is the sequence a long-lived partitioner sees: the fuzzed
// keys; nothing; one key only (the earliest PAD overflow there is); the
// fuzzed keys then one key (an overflow mid-pass); a few tuples of that key,
// which fit; the fuzzed keys again.
func reuseRelations(t *testing.T, data []byte, width int, layout workload.Layout) []*workload.Relation {
	t.Helper()
	keys := make([]uint32, len(data)/4)
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint32(data[i*4:])
	}
	hot := func(n int) []uint32 {
		ks := make([]uint32, n)
		for i := range ks {
			ks[i] = 0x5eed
		}
		return ks
	}
	var rels []*workload.Relation
	for _, ks := range [][]uint32{keys, nil, hot(256), append(slices.Clone(keys), hot(256)...), hot(2), keys} {
		rel, err := workload.FromKeys(ks, width)
		if err != nil {
			t.Fatal(err)
		}
		if layout == workload.ColumnLayout {
			rel = rel.ToColumns()
		}
		rels = append(rels, rel)
	}
	return rels
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
	if (used.cpu == nil) != (fresh.cpu == nil) || used.cpu != nil &&
		(!slices.Equal(used.cpu.Data, fresh.cpu.Data) || !slices.Equal(used.cpu.Offsets, fresh.cpu.Offsets)) {
		t.Fatalf("step %d: CPU outputs differ", step)
	}
}

// FuzzPartitionerReuse is differential fuzzing of partitioner reuse. A
// partitioner keeps what it built — the circuit's datapath, the CPU
// partitioner's scratch — from call to call; whatever the previous call was,
// the next one must return what a new partitioner returns: the identical
// result or the identical error, and never a panic past ErrSimulatorFault.
func FuzzPartitionerReuse(f *testing.F) {
	seed := make([]byte, 4*400)
	for i := range seed {
		seed[i] = byte(i * 131 >> (i % 5))
	}
	for kind := uint8(0); kind < reuseKinds; kind++ {
		f.Add(kind, seed)
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(9), bytes.Repeat([]byte{1, 0, 0, 0}, 300))
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		if len(data) > 1<<12 {
			t.Skip("bound the per-input work")
		}
		usedSess, freshSess := simtrace.NewSession(), simtrace.NewSession()
		used, width, layout := newReusePartitioner(t, kind, usedSess)
		for step, rel := range reuseRelations(t, data, width, layout) {
			fresh, _, _ := newReusePartitioner(t, kind, freshSess)
			ur, uerr := used.Partition(rel)
			fr, ferr := fresh.Partition(rel)
			if errors.Is(ferr, ErrSimulatorFault) {
				t.Fatalf("step %d: %v", step, ferr)
			}
			requireSameResult(t, step, ur, uerr, fr, ferr)
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
// for its next call, and several goroutines may call it at once; each must
// get the result a partitioner of its own returns (run with -race).
func TestCPUPartitionerSharedByGoroutines(t *testing.T) {
	shared, err := NewCPU(CPUOptions{Partitions: 64, Hash: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, calls = 4, 25
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
			}
		}()
	}
	wg.Wait()
}
