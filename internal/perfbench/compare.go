package perfbench

import (
	"fmt"
	"io"

	"fpgapart/internal/simtrace"
)

// RowClass classifies one compare row.
type RowClass string

const (
	// ClassGated rows carry simulated metrics: any delta fails the gate.
	ClassGated RowClass = "gated"
	// ClassRecord rows report whole-record presence changes.
	ClassRecord RowClass = "record"
)

// CompareRow is one metric (or record-presence) delta between two reports.
type CompareRow struct {
	Record string
	Metric string
	Class  RowClass
	Change simtrace.Change
	Old    simtrace.Metric
	New    simtrace.Metric
	OldOK  bool
	NewOK  bool
	// Fails marks the rows that fail the gate: gated metrics that changed
	// or disappeared, and records that disappeared. Additions are reported
	// but do not fail — new scenarios and new metrics are how the matrix
	// grows, and they force a baseline regeneration anyway.
	Fails bool
}

// Comparison is the full diff of two same-suite reports.
type Comparison struct {
	Suite string
	Rows  []CompareRow
}

// Failed reports whether any row fails the gate.
func (c *Comparison) Failed() bool {
	for _, r := range c.Rows {
		if r.Fails {
			return true
		}
	}
	return false
}

// Compare diffs a baseline report against a fresh one. It refuses
// cross-suite and cross-configuration comparisons: a baseline generated at a
// different seed or scale would report every metric changed, which is a
// configuration error, not a regression.
func Compare(old, new *Report) (*Comparison, error) {
	if old.Suite != new.Suite {
		return nil, fmt.Errorf("perfbench: comparing suite %q against %q", old.Suite, new.Suite)
	}
	if old.Seed != new.Seed || old.Tuples != new.Tuples {
		return nil, fmt.Errorf("perfbench: baseline was generated with seed=%d tuples=%d, this run used seed=%d tuples=%d — regenerate the baseline or match the configuration",
			old.Seed, old.Tuples, new.Seed, new.Tuples)
	}

	c := &Comparison{Suite: old.Suite}
	matched := make(map[string]bool, len(old.Records))
	for _, or := range old.Records {
		nr, ok := findRecord(new.Records, or.Name)
		if !ok {
			c.Rows = append(c.Rows, CompareRow{
				Record: or.Name, Class: ClassRecord, Change: simtrace.Removed, Fails: true,
			})
			continue
		}
		matched[or.Name] = true
		c.diffRecord(or, nr)
	}
	for _, nr := range new.Records {
		if !matched[nr.Name] {
			c.Rows = append(c.Rows, CompareRow{
				Record: nr.Name, Class: ClassRecord, Change: simtrace.Added,
			})
		}
	}
	return c, nil
}

func findRecord(recs []Record, name string) (Record, bool) {
	for _, r := range recs {
		if r.Name == name {
			return r, true
		}
	}
	return Record{}, false
}

func (c *Comparison) diffRecord(old, new Record) {
	for _, d := range old.Gated.Metrics.Diff(new.Gated.Metrics) {
		if d.Change == simtrace.Unchanged {
			continue
		}
		c.Rows = append(c.Rows, CompareRow{
			Record: old.Name, Metric: d.Name, Class: ClassGated,
			Change: d.Change, Old: d.Old, New: d.New, OldOK: d.OldOK, NewOK: d.NewOK,
			Fails: d.Change == simtrace.Changed || d.Change == simtrace.Removed,
		})
	}
}

// formatMetric renders a metric value for the compare table.
func formatMetric(m simtrace.Metric, ok bool) string {
	if !ok {
		return "—"
	}
	switch m.Kind {
	case simtrace.KindGauge:
		return fmt.Sprintf("%d (max %d)", m.Value, m.Max)
	case simtrace.KindHistogram:
		return fmt.Sprintf("%d obs, max %d, %d buckets", m.Value, m.Max, len(m.Buckets))
	default:
		return fmt.Sprintf("%d", m.Value)
	}
}

func (r CompareRow) status() string {
	if r.Fails {
		return "FAIL"
	}
	return "note"
}

// WriteMarkdown renders the comparison as a GitHub-flavored markdown table
// (or a one-line all-clear), suitable for a CI step summary.
func (c *Comparison) WriteMarkdown(w io.Writer) error {
	verdict := "PASS"
	if c.Failed() {
		verdict = "FAIL"
	}
	if _, err := fmt.Fprintf(w, "### perfbench %s: %s\n\n", c.Suite, verdict); err != nil {
		return err
	}
	if len(c.Rows) == 0 {
		_, err := fmt.Fprintf(w, "No changes: all gated metrics are byte-identical to the baseline.\n")
		return err
	}
	if _, err := fmt.Fprintf(w, "| record | metric | class | change | baseline | current | status |\n|---|---|---|---|---|---|---|\n"); err != nil {
		return err
	}
	for _, r := range c.Rows {
		metric := r.Metric
		if r.Class == ClassRecord {
			metric = "(record)"
		}
		if _, err := fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s | %s |\n",
			r.Record, metric, r.Class, r.Change,
			formatMetric(r.Old, r.OldOK), formatMetric(r.New, r.NewOK), r.status()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "\nGated metrics are simulated (deterministic); any delta is a true regression.\n")
	return err
}
