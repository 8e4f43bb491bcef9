package perfbench

import (
	"encoding/json"
	"fmt"
	"io"

	"fpgapart/internal/simtrace"
)

// SchemaVersion identifies the BENCH JSON layout. Any change to the record
// shape must bump it: Compare refuses cross-version diffs, so a schema
// migration shows up as an explicit baseline regeneration instead of a
// spurious wall of metric adds/removes.
const SchemaVersion = "fpgapart.perfbench/v2"

// Report is one suite's BENCH file: a fixed header plus one Record per
// scenario. It is written field by field through the simtrace writers (the
// fpgavet benchjson analyzer enforces that no reflection-driven marshaling
// touches this path) and parsed back with encoding/json on the read side.
type Report struct {
	Schema string `json:"schema"`
	Suite  string `json:"suite"`
	// Seed and Tuples echo the run configuration so a compare against a
	// baseline generated at a different scale fails loudly.
	Seed   int64 `json:"seed"`
	Tuples int   `json:"tuples"`

	Records []Record `json:"records"`
}

// Record is one scenario's result.
type Record struct {
	// Name identifies the scenario, e.g. "partition/HIST/RID/w8/fan256/uniform".
	Name string `json:"name"`
	// Gated metrics are simulated (cycle- or simulated-µs-derived) and
	// deterministic: ANY change is a true regression and fails the gate.
	Gated MetricSet `json:"gated"`
}

// MetricSet wraps a snapshot in the `{"metrics": [...]}` object the
// simtrace writer emits, so records round-trip through encoding/json on the
// read path.
type MetricSet struct {
	Metrics simtrace.Snapshot `json:"metrics"`
}

// WriteJSON writes the report as deterministic JSON: fixed field order,
// records in scenario order, metric sets via the simtrace field-by-field
// writer. Same seed ⇒ byte-identical files.
func (r *Report) WriteJSON(w io.Writer) error {
	wr := func(format string, args ...interface{}) error {
		if _, err := fmt.Fprintf(w, format, args...); err != nil {
			return fmt.Errorf("perfbench: writing BENCH report: %w", err)
		}
		return nil
	}
	if err := wr("{\n  \"schema\": %q,\n  \"suite\": %q,\n  \"seed\": %d,\n  \"tuples\": %d,\n  \"records\": [\n",
		r.Schema, r.Suite, r.Seed, r.Tuples); err != nil {
		return err
	}
	for i, rec := range r.Records {
		if err := wr("    {\n      \"name\": %q,\n      \"gated\": ", rec.Name); err != nil {
			return err
		}
		if err := rec.Gated.Metrics.WriteJSONIndent(w, "      "); err != nil {
			return err
		}
		sep := ","
		if i == len(r.Records)-1 {
			sep = ""
		}
		if err := wr("\n    }%s\n", sep); err != nil {
			return err
		}
	}
	return wr("  ]\n}\n")
}

// ParseReport reads a BENCH file written by WriteJSON, rejecting unknown
// schema versions.
func ParseReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perfbench: parsing BENCH report: %w", err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("perfbench: unsupported schema %q (this build understands %q — regenerate the baseline)",
			r.Schema, SchemaVersion)
	}
	return &r, nil
}
