package partserver

import (
	"io"

	"fpgapart/internal/simtrace"
)

// WriteJSON renders the report as deterministic JSON, written field by
// field in a fixed layout (the repo's golden/BENCH convention — no
// reflective marshalling), so same-seed runs emit byte-identical bytes.
func (rep *Report) WriteJSON(w io.Writer) error {
	bw := simtrace.NewWriter(w, "partserver: writing report")
	bw.Printf("{\n  \"makespan_us\": %d,\n  \"placed_fpga\": %d,\n  \"placed_cpu\": %d,\n  \"degraded\": %d,\n",
		rep.MakespanUS, rep.PlacedFPGA, rep.PlacedCPU, rep.Degraded)
	bw.Printf("  \"failed_instances\": [")
	for i, inst := range rep.FailedInstances {
		if i > 0 {
			bw.Printf(", ")
		}
		bw.Printf("%d", inst)
	}
	bw.Printf("],\n  \"jobs\": [\n")
	for i := range rep.Results {
		r := &rep.Results[i]
		bw.Printf("    {\"id\": %d, \"status\": %q, \"placement\": %q, \"instance\": %d, \"attempts\": %d, \"degraded\": %v, \"arrival_us\": %d, \"dispatch_us\": %d, \"done_us\": %d, \"queue_wait_us\": %d, \"exec_us\": %d, \"tuples\": %d, \"checksum\": %d, \"matches\": %d}%s\n",
			r.ID, r.Status, r.Placement, r.Instance, r.Attempts, r.Degraded,
			r.ArrivalUS, r.DispatchUS, r.DoneUS, r.QueueWaitUS, r.ExecUS,
			r.Tuples, r.Checksum, r.Matches, simtrace.Sep(i, len(rep.Results)))
	}
	bw.Printf("  ]\n}\n")
	return bw.Flush()
}
