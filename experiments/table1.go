package experiments

import (
	"fmt"

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

// Notes gives the derived penalties.
func (res *Table1Result) Notes() []string {
	return []string{fmt.Sprintf("derived penalties: sequential %.2fx, random %.2fx", res.SeqPenalty, res.RandPenalty)}
}

// CSV has one record per (writer, pattern) cell, beside the paper's.
func (res *Table1Result) CSV() [][]string {
	rows := [][]string{{"last_writer", "pattern", "seconds", "paper_seconds"}}
	for _, r := range res.Rows {
		writer, pattern := r.LastWriter.String(), "sequential"
		if r.Random {
			pattern = "random"
		}
		rows = append(rows, []string{writer, pattern, f(r.Seconds), f(ClaimOf("Table 1", writer+" "+pattern).Paper)})
	}
	return rows
}
