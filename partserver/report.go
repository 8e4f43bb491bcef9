package partserver

import (
	"fmt"
	"io"
)

// WriteJSON renders the report as deterministic JSON, written field by
// field in a fixed layout (the repo's golden/BENCH convention — no
// reflective marshalling), so same-seed runs emit byte-identical bytes.
func (rep *Report) WriteJSON(w io.Writer) error {
	write := func(format string, args ...interface{}) error {
		if _, err := fmt.Fprintf(w, format, args...); err != nil {
			return fmt.Errorf("partserver: writing report: %w", err)
		}
		return nil
	}
	if err := write("{\n  \"makespan_us\": %d,\n  \"placed_fpga\": %d,\n  \"placed_cpu\": %d,\n  \"degraded\": %d,\n",
		rep.MakespanUS, rep.PlacedFPGA, rep.PlacedCPU, rep.Degraded); err != nil {
		return err
	}
	if err := write("  \"failed_instances\": ["); err != nil {
		return err
	}
	for i, inst := range rep.FailedInstances {
		sep := ""
		if i > 0 {
			sep = ", "
		}
		if err := write("%s%d", sep, inst); err != nil {
			return err
		}
	}
	if err := write("],\n  \"jobs\": [\n"); err != nil {
		return err
	}
	for i := range rep.Results {
		r := &rep.Results[i]
		sep := ","
		if i == len(rep.Results)-1 {
			sep = ""
		}
		if err := write("    {\"id\": %d, \"status\": %q, \"placement\": %q, \"instance\": %d, \"attempts\": %d, \"degraded\": %v, \"arrival_us\": %d, \"dispatch_us\": %d, \"done_us\": %d, \"queue_wait_us\": %d, \"exec_us\": %d, \"tuples\": %d, \"checksum\": %d, \"matches\": %d}%s\n",
			r.ID, r.Status, r.Placement, r.Instance, r.Attempts, r.Degraded,
			r.ArrivalUS, r.DispatchUS, r.DoneUS, r.QueueWaitUS, r.ExecUS,
			r.Tuples, r.Checksum, r.Matches, sep); err != nil {
			return err
		}
	}
	return write("  ]\n}\n")
}
