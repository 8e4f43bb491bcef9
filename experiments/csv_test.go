package experiments

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestWriteCSVFastExperiments checks the shape of every CSV (all sixteen,
// whatever the name says): snake_case header, rows as wide as the header.
func TestWriteCSVFastExperiments(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			rows := result[Result](t, e.ID).CSV()
			if len(rows) < 2 {
				t.Fatalf("only %d rows", len(rows))
			}
			for _, col := range rows[0] {
				if col != strings.ToLower(col) || strings.Contains(col, " ") {
					t.Errorf("header %q not snake_case", col)
				}
			}
			for i, row := range rows {
				if len(row) != len(rows[0]) {
					t.Errorf("row %d has %d fields, header has %d", i, len(row), len(rows[0]))
				}
			}
		})
	}
}

// TestWriteCSVAllExperiments writes every result the way cmd/repro does and
// reads it back unchanged, with every cell of a workload column filled.
func TestWriteCSVAllExperiments(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			rows := result[Result](t, e.ID).CSV()
			var buf bytes.Buffer
			if err := csv.NewWriter(&buf).WriteAll(rows); err != nil {
				t.Fatal(err)
			}
			back, err := csv.NewReader(&buf).ReadAll()
			if err != nil {
				t.Fatalf("invalid csv: %v", err)
			}
			if !reflect.DeepEqual(back, rows) {
				t.Errorf("wrote %d records, read back %d that differ", len(rows), len(back))
			}
			for _, row := range rows[1:] {
				if i := slices.Index(rows[0], "workload"); i >= 0 && row[i] == "" {
					t.Errorf("empty workload cell in %q", row)
				}
			}
		})
	}
}

// TestThreadSweepCSVWorkloadOrder pins the row order of the two CSVs that
// are rendered from a map: workloads appear in the order the figure runs them.
func TestThreadSweepCSVWorkloadOrder(t *testing.T) {
	for id, want := range map[string]string{"fig11": "AB", "fig12": "CDE"} {
		var got string
		for _, row := range result[Result](t, id).CSV()[1:] {
			if !strings.HasSuffix(got, row[0]) {
				got += row[0]
			}
		}
		if got != want {
			t.Errorf("%s: workload column runs through %q, want %q", id, got, want)
		}
	}
}
