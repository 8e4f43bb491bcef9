package experiments

import (
	"bytes"
	"encoding/csv"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden and EXPERIMENTS.md's claims blocks")

// deterministic lists the experiments whose CSV at tiny() is a pure function
// of the configuration: simulated cycles, the platform and cost models, key
// counts. The others carry host-measured times, so only their header row is
// pinned.
var deterministic = map[string]bool{
	"table1": true, "table2": true, "model": true, "fig3": true,
	"fig8": true, "skewdetect": true, "future": true, "compress": true,
}

// TestGoldenCSV pins each experiment's CSV at tiny(), written the way
// cmd/repro writes it: every record of the deterministic eight, the header
// row of the rest. -update rewrites testdata/golden/<id>.csv; a mismatch
// leaves <id>.got.csv beside it for CI to upload.
func TestGoldenCSV(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			rows := result[Result](t, e.ID).CSV()
			if !deterministic[e.ID] {
				rows = rows[:1]
			}
			var got bytes.Buffer
			if err := csv.NewWriter(&got).WriteAll(rows); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "golden", e.ID+".csv")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden file (run `go test ./experiments -run TestGoldenCSV -update` to create it): %v", err)
			}
			if bytes.Equal(got.Bytes(), want) {
				return
			}
			gotPath := filepath.Join("testdata", "golden", e.ID+".got.csv")
			if err := os.WriteFile(gotPath, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Errorf("golden mismatch: %s differs from %s\nwant:\n%s\ngot:\n%s", golden, gotPath, want, got.Bytes())
		})
	}
}
