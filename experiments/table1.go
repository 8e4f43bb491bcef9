package experiments

import (
	"fmt"
	"io"

	"fpgapart/internal/memsys"
	"fpgapart/platform"
)

// Table1Row is one cell row of Table 1: single-threaded CPU read time of a
// 512 MB region under a given pattern and last writer.
type Table1Row struct {
	LastWriter platform.Socket
	Random     bool
	Seconds    float64
}

// Table1Result reproduces Table 1 plus the derived penalties used by the
// hybrid join.
type Table1Result struct {
	Rows        []Table1Row
	SeqPenalty  float64
	RandPenalty float64
}

// RunTable1 replays the Section 2.2 micro-benchmark against the coherence
// model: a 512 MB region is written by one socket (tracked per cache line in
// memsys), then read by the CPU sequentially and randomly; the model's
// per-line latencies — calibrated to the paper's measurements — accumulate
// into the region read time.
func RunTable1(cfg Config) (*Table1Result, error) {
	p := platform.XeonFPGA()
	const region = int64(512 << 20)

	res := &Table1Result{
		SeqPenalty:  p.Coherence.SeqPenalty(),
		RandPenalty: p.Coherence.RandPenalty(),
	}
	// Exercise the real ownership tracking on a scaled-down region, then
	// extrapolate with the per-line latencies (a 512 MB owner bitmap is
	// cheap, but the point here is the model, not the loop).
	pool, err := memsys.NewPool(1 << 30)
	if err != nil {
		return nil, err
	}
	for _, writer := range []platform.Socket{platform.CPUSocket, platform.FPGASocket} {
		r, err := pool.Alloc(64 << 20)
		if err != nil {
			return nil, err
		}
		if err := r.MarkWritten(writer, 0, 64<<20); err != nil {
			return nil, err
		}
		cpu, fpga := r.OwnerCounts()
		owned := cpu
		if writer == platform.FPGASocket {
			owned = fpga
		}
		if owned != (64<<20)/memsys.LineBytes {
			return nil, fmt.Errorf("experiments: ownership tracking lost lines: %d/%d", cpu, fpga)
		}
		for _, random := range []bool{false, true} {
			res.Rows = append(res.Rows, Table1Row{
				LastWriter: writer,
				Random:     random,
				Seconds:    p.Coherence.ReadTime(region, random, writer),
			})
		}
	}
	return res, nil
}

// Text renders the table pivoted as in the paper: one row per writer.
func (res *Table1Result) Text(w io.Writer) {
	header(w, "Table 1: CPU read time of a 512 MB region vs last writer")
	fmt.Fprintf(w, "%-14s %-22s %-22s\n", "", "CPU reads sequentially", "CPU reads randomly")
	for _, writer := range []platform.Socket{platform.CPUSocket, platform.FPGASocket} {
		var seq, rnd float64
		for _, r := range res.Rows {
			if r.LastWriter != writer {
				continue
			}
			if r.Random {
				rnd = r.Seconds
			} else {
				seq = r.Seconds
			}
		}
		fmt.Fprintf(w, "%-14s %-22.4f %-22.4f\n", writer.String()+" writes", seq, rnd)
	}
	fmt.Fprintf(w, "derived penalties: sequential %.2fx, random %.2fx\n", res.SeqPenalty, res.RandPenalty)
	fmt.Fprintln(w, "paper:             CPU 0.1381/1.1537 s, FPGA 0.1533/2.4876 s")
}

// CSV has one record per (writer, pattern) cell.
func (res *Table1Result) CSV() [][]string {
	rows := [][]string{{"last_writer", "pattern", "seconds"}}
	for _, r := range res.Rows {
		pattern := "sequential"
		if r.Random {
			pattern = "random"
		}
		rows = append(rows, []string{r.LastWriter.String(), pattern, f(r.Seconds)})
	}
	return rows
}
