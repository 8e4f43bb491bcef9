package experiments

import (
	"fmt"
	"io"

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
// model: a 512 MB region is written by one socket, then read by the CPU
// sequentially and randomly; the model's per-line latencies — calibrated to
// the paper's measurements — accumulate into the region read time.
func RunTable1(cfg Config) (*Table1Result, error) {
	p := platform.XeonFPGA()
	const region = int64(512 << 20)

	res := &Table1Result{
		SeqPenalty:  p.Coherence.SeqPenalty(),
		RandPenalty: p.Coherence.RandPenalty(),
	}
	for _, writer := range []platform.Socket{platform.CPUSocket, platform.FPGASocket} {
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
