package distjoin

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"fpgapart/internal/simtrace"
)

// TestSameSeedByteIdenticalResult is the determinism regression gate for the
// fault-tolerance layer: the same fault scenario under the same seed must
// reproduce the entire Result byte-for-byte — not just the join answer, but
// every piece of fault accounting (Retries, CorruptPieces, ResentBytes,
// FailedNodes, ExchangeTime). A multiset-stable checksum cannot catch
// order-sensitive divergence (map iteration, scheduling), so this compares
// the whole struct.
//
// PartitionTime, JoinTime and Total are measured host wall-clock and are
// zeroed before comparison; everything else is simulated and must replay
// exactly — and so must the metrics the run leaves in its trace session,
// which is where a host duration added to a counter would show first.
func TestSameSeedByteIdenticalResult(t *testing.T) {
	in := testInput(t, 1<<13, 1<<13)
	opts := Options{Nodes: 4, PartitionsPerNode: 32, Threads: 2, Faults: acceptanceScenario(2026)}

	run := func() (Result, []byte) {
		o := opts
		o.Trace = simtrace.NewSession()
		res, err := Join(in.R, in.S, o)
		if err != nil {
			t.Fatal(err)
		}
		norm := *res
		norm.PartitionTime = time.Duration(0)
		norm.JoinTime = time.Duration(0)
		norm.Total = time.Duration(0)
		var metrics bytes.Buffer
		if err := o.Trace.Metrics.Snapshot().WriteJSON(&metrics); err != nil {
			t.Fatal(err)
		}
		return norm, metrics.Bytes()
	}

	a, am := run()
	b, bm := run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, diverging results:\nfirst:  %+v\nsecond: %+v", a, b)
	}
	if !bytes.Equal(am, bm) {
		t.Fatalf("same seed, diverging metrics snapshots:\nfirst:  %s\nsecond: %s", am, bm)
	}

	// Non-vacuity: the scenario must actually exercise the retry and
	// recovery machinery, otherwise identical zeros prove nothing.
	if a.Retries == 0 {
		t.Error("scenario produced zero retries — determinism comparison is vacuous")
	}
	if a.ResentBytes == 0 {
		t.Error("scenario produced zero resent bytes — determinism comparison is vacuous")
	}
	if !a.Degraded || len(a.FailedNodes) == 0 {
		t.Error("scenario did not degrade the join — crash path not replayed")
	}
}
