package rdma

import (
	"math"
	"reflect"
	"testing"

	"fpgapart/internal/faults"
)

func mustInjector(t *testing.T, s faults.Scenario) *faults.Injector {
	t.Helper()
	inj, err := faults.New(s)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// --- ExchangeSeconds under extreme skew (satellite coverage) ---

func TestExchangeAllBytesToOneNode(t *testing.T) {
	// Every node sends its full shard to node 0: reception port of node 0
	// serializes the whole volume.
	f := FDRCluster(4)
	m := make([][]int64, 4)
	for i := range m {
		m[i] = make([]int64, 4)
		if i != 0 {
			m[i][0] = 1 << 30
		}
	}
	sec, err := f.ExchangeSeconds(m)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(3<<30) / 6.8e9
	if sec < want || sec > want*1.1 {
		t.Errorf("all-to-one exchange = %v s, want ≈ %v", sec, want)
	}
}

func TestExchangeAllBytesFromOneNode(t *testing.T) {
	// Node 0 broadcasts to everyone: its injection port is the bottleneck,
	// and it also pays the per-message latency on its critical path.
	f := FDRCluster(4)
	m := make([][]int64, 4)
	for i := range m {
		m[i] = make([]int64, 4)
	}
	for j := 1; j < 4; j++ {
		m[0][j] = 1 << 30
	}
	sec, err := f.ExchangeSeconds(m)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(3<<30) / 6.8e9
	if sec < want {
		t.Errorf("one-to-all exchange = %v s, want ≥ %v", sec, want)
	}
}

func TestExchangeSingleNodeFabricMatrix(t *testing.T) {
	f := FDRCluster(1)
	sec, err := f.ExchangeSeconds([][]int64{{1 << 40}})
	if err != nil {
		t.Fatal(err)
	}
	if sec != 0 {
		t.Errorf("single-node matrix exchange = %v s, want 0", sec)
	}
}

func TestExchangeZeroMatrix(t *testing.T) {
	f := FDRCluster(8)
	m := make([][]int64, 8)
	for i := range m {
		m[i] = make([]int64, 8)
	}
	sec, err := f.ExchangeSeconds(m)
	if err != nil {
		t.Fatal(err)
	}
	if sec != 0 {
		t.Errorf("zero-byte exchange = %v s, want 0", sec)
	}
}

// --- Retry/backoff timing math ---

func TestBackoffDoublesAndCaps(t *testing.T) {
	// jitter01 = 1 is the upper bound of the draw: the whole backoff.
	want := []float64{10, 20, 40, 80, 160, 320, 640, 1280, 2560, 5000, 5000}
	for i, w := range want {
		if got := backoffUS(i+1, 1); math.Abs(got-w) > 1e-9 {
			t.Errorf("attempt %d: backoff %v, want %v", i+1, got, w)
		}
	}
	if got := backoffUS(0, 0.5); got != 0 {
		t.Errorf("attempt 0 backoff = %v, want 0", got)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	lo, hi := backoffUS(4, 0), backoffUS(4, 0.999999)
	if lo != 40 {
		t.Errorf("zero-jitter draw = %v, want 40 (half of 80: jitterFrac of it is drawn)", lo)
	}
	if hi <= lo || hi >= 80.0001 {
		t.Errorf("max-jitter draw = %v, want in (40, 80]", hi)
	}
}

func TestTimeoutFollowsTheFabric(t *testing.T) {
	f := FDRCluster(2)
	wire := float64(f.MessageBytes) / (f.LinkGBps * 1e9) * 1e6
	if want := 4*wire + 2*f.LatencyUS; math.Abs(f.timeoutUS()-want) > 1e-9 {
		t.Errorf("timeout %v, want %v", f.timeoutUS(), want)
	}
	slow := *f
	slow.LinkGBps /= 2
	if slow.timeoutUS() <= f.timeoutUS() {
		t.Errorf("timeout %v on a link half as fast, %v on the fast one", slow.timeoutUS(), f.timeoutUS())
	}
}

// --- ExchangePieces ---

func symmetricPieces(n int, bytes int64) []Piece {
	var ps []Piece
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src != dst {
				ps = append(ps, Piece{Src: src, Dst: dst, Bytes: bytes, ID: uint64(src*n + dst)})
			}
		}
	}
	return ps
}

func TestExchangePiecesFaultFreeMatchesMatrix(t *testing.T) {
	f := FDRCluster(4)
	pieces := symmetricPieces(4, 10<<20)
	st, err := f.ExchangePieces(pieces, ExchangeFaults{Injector: mustInjector(t, faults.Scenario{Seed: 1})})
	if err != nil {
		t.Fatal(err)
	}
	m := make([][]int64, 4)
	for i := range m {
		m[i] = make([]int64, 4)
		for j := range m[i] {
			if i != j {
				m[i][j] = 10 << 20
			}
		}
	}
	sec, err := f.ExchangeSeconds(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Seconds-sec)/sec > 0.01 {
		t.Errorf("piece exchange %v s vs matrix %v s", st.Seconds, sec)
	}
	if st.Retries != 0 || st.Dropped != 0 || st.Corrupted != 0 || st.CorruptPieces != 0 {
		t.Errorf("fault-free exchange reported faults: %+v", st)
	}
	for i, oc := range st.Outcomes {
		if oc != PieceDelivered {
			t.Fatalf("piece %d outcome %v", i, oc)
		}
	}
}

func TestExchangePiecesDeterministic(t *testing.T) {
	f := FDRCluster(4)
	s := faults.Scenario{
		Seed: 99, DropProb: 0.05, CorruptProb: 0.02, DelayProb: 0.1, DelayUS: 20,
		Links:      []faults.Link{{Src: 0, Dst: 1, Factor: 0.5}},
		Stragglers: []faults.Straggler{{Node: 3, Factor: 1.5}},
	}
	run := func() *ExchangeStats {
		st, err := f.ExchangePieces(symmetricPieces(4, 4<<20), ExchangeFaults{Injector: mustInjector(t, s)})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different stats:\n%+v\n%+v", a, b)
	}
	s.Seed = 100
	c, err := f.ExchangePieces(symmetricPieces(4, 4<<20), ExchangeFaults{Injector: mustInjector(t, s)})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Retries, c.Retries) && reflect.DeepEqual(a.Seconds, c.Seconds) {
		t.Error("different seeds produced identical retry count and timing")
	}
}

func TestExchangePiecesDropsCostTimeAndRetries(t *testing.T) {
	f := FDRCluster(2)
	clean, err := f.ExchangePieces(symmetricPieces(2, 8<<20), ExchangeFaults{Injector: mustInjector(t, faults.Scenario{Seed: 5})})
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := f.ExchangePieces(symmetricPieces(2, 8<<20), ExchangeFaults{
		Injector: mustInjector(t, faults.Scenario{Seed: 5, DropProb: 0.2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Retries == 0 || lossy.Dropped == 0 {
		t.Fatalf("20%% drop produced no retries: %+v", lossy)
	}
	if lossy.Seconds <= clean.Seconds {
		t.Errorf("lossy exchange (%v s) not slower than clean (%v s)", lossy.Seconds, clean.Seconds)
	}
	if lossy.RetransmittedBytes == 0 {
		t.Error("no retransmitted bytes recorded")
	}
}

func TestExchangePiecesCorruptionRerequestsPieces(t *testing.T) {
	f := FDRCluster(2)
	st, err := f.ExchangePieces(symmetricPieces(2, 32<<20), ExchangeFaults{
		Injector: mustInjector(t, faults.Scenario{Seed: 7, CorruptProb: 0.05}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupted == 0 || st.CorruptPieces == 0 {
		t.Fatalf("5%% corruption went unnoticed: %+v", st)
	}
	for i, oc := range st.Outcomes {
		if oc != PieceDelivered {
			t.Fatalf("piece %d not delivered after re-requests: %v", i, oc)
		}
	}
}

func TestExchangePiecesDegradedLinkSlower(t *testing.T) {
	f := FDRCluster(2)
	clean, err := f.ExchangePieces(symmetricPieces(2, 16<<20), ExchangeFaults{Injector: mustInjector(t, faults.Scenario{Seed: 3})})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := f.ExchangePieces(symmetricPieces(2, 16<<20), ExchangeFaults{
		Injector: mustInjector(t, faults.Scenario{Seed: 3, Links: []faults.Link{{Src: 0, Dst: 1, Factor: 0.25}}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Seconds < clean.Seconds*3 {
		t.Errorf("4× degraded link: %v s vs clean %v s, want ≈ 4×", slow.Seconds, clean.Seconds)
	}
}

func TestExchangePiecesStragglerDominates(t *testing.T) {
	f := FDRCluster(4)
	clean, err := f.ExchangePieces(symmetricPieces(4, 8<<20), ExchangeFaults{Injector: mustInjector(t, faults.Scenario{Seed: 11})})
	if err != nil {
		t.Fatal(err)
	}
	strag, err := f.ExchangePieces(symmetricPieces(4, 8<<20), ExchangeFaults{
		Injector: mustInjector(t, faults.Scenario{Seed: 11, Stragglers: []faults.Straggler{{Node: 2, Factor: 3}}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := strag.Seconds / clean.Seconds; ratio < 2.9 || ratio > 3.1 {
		t.Errorf("3× straggler changed exchange by %.2f×, want ≈ 3×", ratio)
	}
}

func TestExchangePiecesCrashFailsAndWastes(t *testing.T) {
	f := FDRCluster(4)
	pieces := symmetricPieces(4, 8<<20)
	st, err := f.ExchangePieces(pieces, ExchangeFaults{
		Injector:     mustInjector(t, faults.Scenario{Seed: 13, Crashes: []faults.Crash{{Node: 1, AfterFraction: 0.5}}}),
		ApplyCrashes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.FailedNodes) != 1 || st.FailedNodes[0] != 1 {
		t.Fatalf("failed nodes = %v, want [1]", st.FailedNodes)
	}
	var failed, unsent int
	for i, oc := range st.Outcomes {
		switch oc {
		case PieceFailed:
			failed++
		case PieceUnsent:
			unsent++
			if pieces[i].Src != 1 {
				t.Errorf("unsent piece %d sourced at healthy node %d", i, pieces[i].Src)
			}
		}
	}
	if failed == 0 {
		t.Error("mid-exchange crash produced no failed pieces")
	}
	if st.WastedBytes == 0 {
		t.Error("mid-exchange crash wasted no delivered bytes")
	}
}

func TestExchangePiecesCrashFromStartNothingDeliveredToIt(t *testing.T) {
	f := FDRCluster(2)
	st, err := f.ExchangePieces(symmetricPieces(2, 4<<20), ExchangeFaults{
		Injector:     mustInjector(t, faults.Scenario{Seed: 17, Crashes: []faults.Crash{{Node: 0, AfterFraction: 0}}}),
		ApplyCrashes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Piece 1→0 fails (dst dead), piece 0→1 is unsent (src dead).
	if st.WastedBytes != 0 {
		t.Errorf("crash-at-start wasted %d bytes", st.WastedBytes)
	}
	var delivered int
	for _, oc := range st.Outcomes {
		if oc == PieceDelivered {
			delivered++
		}
	}
	if delivered != 0 {
		t.Errorf("%d pieces delivered through a node dead from the start", delivered)
	}
	// The one flow into the dead node burns its whole budget on timeouts,
	// once: maxAttempts transmissions, a backoff before each retry.
	if st.Messages != maxAttempts || st.Retries != maxAttempts-1 {
		t.Errorf("dead destination cost %d messages, %d retries; want %d and %d", st.Messages, st.Retries, maxAttempts, maxAttempts-1)
	}
	lo := maxAttempts*f.timeoutUS() + backoffUS(1, 0) + backoffUS(2, 0) + backoffUS(3, 0) + backoffUS(4, 0)
	hi := maxAttempts*f.timeoutUS() + backoffUS(1, 1) + backoffUS(2, 1) + backoffUS(3, 1) + backoffUS(4, 1)
	if us := st.Seconds * 1e6; us < lo-1e-6 || us > hi+1e-6 {
		t.Errorf("exhausted budget took %v µs, want within [%v, %v]", us, lo, hi)
	}
}

func TestExchangePiecesCrashIgnoredWithoutApply(t *testing.T) {
	f := FDRCluster(2)
	st, err := f.ExchangePieces(symmetricPieces(2, 4<<20), ExchangeFaults{
		Injector: mustInjector(t, faults.Scenario{Seed: 19, Crashes: []faults.Crash{{Node: 0, AfterFraction: 0}}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, oc := range st.Outcomes {
		if oc != PieceDelivered {
			t.Errorf("piece %d outcome %v with crashes disabled", i, oc)
		}
	}
}

func TestExchangePiecesValidation(t *testing.T) {
	f := FDRCluster(2)
	inj := mustInjector(t, faults.Scenario{Seed: 1})
	if _, err := f.ExchangePieces(nil, ExchangeFaults{}); err == nil {
		t.Error("nil injector accepted")
	}
	if _, err := f.ExchangePieces([]Piece{{Src: 0, Dst: 5, Bytes: 1}}, ExchangeFaults{Injector: inj}); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if _, err := f.ExchangePieces([]Piece{{Src: 0, Dst: 1, Bytes: -1}}, ExchangeFaults{Injector: inj}); err == nil {
		t.Error("negative piece size accepted")
	}
	crashTooBig := mustInjector(t, faults.Scenario{Seed: 1, Crashes: []faults.Crash{{Node: 7, AfterFraction: 0.5}}})
	if _, err := f.ExchangePieces(symmetricPieces(2, 1<<20), ExchangeFaults{Injector: crashTooBig, ApplyCrashes: true}); err == nil {
		t.Error("crash of out-of-range node accepted")
	}
}
