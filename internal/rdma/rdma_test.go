package rdma

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"fpgapart/internal/faults"
)

func mustInjector(t testing.TB, s faults.Scenario) *faults.Injector {
	t.Helper()
	inj, err := faults.New(s)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// quiet is the exchange with nothing injected.
func quiet(t testing.TB, f *Fabric, pieces []Piece) (*ExchangeStats, error) {
	return f.Exchange(pieces, ExchangeFaults{Injector: mustInjector(t, faults.Scenario{})})
}

// matrixPieces is one piece per entry of a byte matrix: m[i][j] bytes from
// node i to node j (the diagonal is local).
func matrixPieces(m [][]int64) []Piece {
	var ps []Piece
	for i := range m {
		for j, b := range m[i] {
			ps = append(ps, Piece{Src: i, Dst: j, Bytes: b, ID: uint64(i*len(m) + j)})
		}
	}
	return ps
}

// matrixSeconds is the exchange time of a byte matrix with nothing injected.
func matrixSeconds(t *testing.T, f *Fabric, m [][]int64) float64 {
	t.Helper()
	st, err := quiet(t, f, matrixPieces(m))
	if err != nil {
		t.Fatal(err)
	}
	return st.Seconds
}

// closedForm is the fault-free exchange time of a byte matrix: per node,
// max(out/bw + messages out · latency, in/bw), where a flow of b bytes is
// ceil(b / MessageBytes) messages.
func closedForm(f *Fabric, m [][]int64) float64 {
	bw := f.LinkGBps * 1e9
	var worst float64
	for i := range m {
		var out, in, msgs int64
		for j := range m[i] {
			if i != j {
				out += m[i][j]
				in += m[j][i]
				msgs += (m[i][j] + int64(f.MessageBytes) - 1) / int64(f.MessageBytes)
			}
		}
		worst = max(worst, float64(out)/bw+float64(msgs)*f.LatencyUS*1e-6, float64(in)/bw)
	}
	return worst
}

func TestValidate(t *testing.T) {
	bad := []*Fabric{
		{Nodes: 0, LinkGBps: 1, MessageBytes: 1},
		{Nodes: 2, LinkGBps: 0, MessageBytes: 1},
		{Nodes: 2, LinkGBps: 1, LatencyUS: -1, MessageBytes: 1},
		{Nodes: 2, LinkGBps: 1, MessageBytes: 0},
	}
	for i, f := range bad {
		if f.Validate() == nil {
			t.Errorf("fabric %d validated", i)
		}
	}
	if err := FDRCluster(4).Validate(); err != nil {
		t.Errorf("FDR cluster invalid: %v", err)
	}
}

// uniformExchange is the fault-free exchange of a balanced shuffle of total
// bytes per node: each node sends total/n to every other node.
func uniformExchange(f *Fabric, total int64) (float64, error) {
	m := make([][]int64, f.Nodes)
	for i := range m {
		m[i] = make([]int64, f.Nodes)
		for j := range m[i] {
			if i != j {
				m[i][j] = total / int64(f.Nodes)
			}
		}
	}
	inj, err := faults.New(faults.Scenario{})
	if err != nil {
		return 0, err
	}
	st, err := f.Exchange(matrixPieces(m), ExchangeFaults{Injector: inj})
	if err != nil {
		return 0, err
	}
	return st.Seconds, nil
}

func TestUniformExchangeBandwidthBound(t *testing.T) {
	// 4 nodes, 6.8 GB/s, 1 GB per node: each node injects 3/4 GB →
	// ~0.11 s plus small latency overhead.
	f := FDRCluster(4)
	sec, err := uniformExchange(f, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	wantBW := float64(3*(1<<28)) / 6.8e9
	if sec < wantBW || sec > wantBW*1.2 {
		t.Errorf("exchange = %v s, want ≥ %v (bandwidth bound)", sec, wantBW)
	}
}

func TestSingleNodeExchangeFree(t *testing.T) {
	f := FDRCluster(1)
	sec, err := uniformExchange(f, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if sec != 0 {
		t.Errorf("single-node exchange = %v s, want 0", sec)
	}
}

func TestExchangeSkewBottleneck(t *testing.T) {
	// Node 0 receives everything: its reception port is the bottleneck.
	f := FDRCluster(3)
	sec := matrixSeconds(t, f, [][]int64{
		{0, 0, 0},
		{1 << 30, 0, 0},
		{1 << 30, 0, 0},
	})
	want := float64(2<<30) / 6.8e9 // node 0 receives 2 GB
	if math.Abs(sec-want)/want > 0.05 {
		t.Errorf("skewed exchange = %v s, want ≈ %v", sec, want)
	}
}

func TestExchangeDiagonalFree(t *testing.T) {
	// Local (i == i) bytes cost nothing.
	f := FDRCluster(2)
	if sec := matrixSeconds(t, f, [][]int64{
		{1 << 40, 0},
		{0, 1 << 40},
	}); sec != 0 {
		t.Errorf("local-only exchange = %v s, want 0", sec)
	}
}

func TestExchangeValidation(t *testing.T) {
	f := FDRCluster(2)
	for _, c := range []struct {
		what  string
		piece Piece
	}{
		{"piece to a node the fabric lacks", Piece{Src: 0, Dst: 2, Bytes: 1}},
		{"piece from a negative node", Piece{Src: -1, Dst: 0, Bytes: 1}},
		{"negative transfer", Piece{Src: 0, Dst: 1, Bytes: -1}},
	} {
		if _, err := quiet(t, f, []Piece{c.piece}); err == nil {
			t.Errorf("%s accepted", c.what)
		}
	}
}

func TestLatencyTermMatters(t *testing.T) {
	// Tiny transfers are latency-bound: many small messages accumulate
	// latency.
	f := &Fabric{Nodes: 2, LinkGBps: 100, LatencyUS: 10, MessageBytes: 1 << 10}
	if sec := matrixSeconds(t, f, [][]int64{{0, 64 << 10}, {0, 0}}); sec < 64*10e-6 { // 64 messages
		t.Errorf("exchange = %v s, want ≥ 64 × 10 µs of latency", sec)
	}
}

func TestPropertyMoreNodesNeverSlowerUniform(t *testing.T) {
	// For a fixed per-node volume, growing the cluster cannot slow the
	// balanced exchange by more than the off-node fraction growth.
	f := func(raw uint8) bool {
		n := int(raw)%14 + 2
		a, err := uniformExchange(FDRCluster(n), 1<<28)
		if err != nil {
			return false
		}
		b, err := uniformExchange(FDRCluster(n+1), 1<<28)
		if err != nil {
			return false
		}
		// Off-node fraction (n-1)/n grows with n, so time grows slightly —
		// but never more than ~2× the per-message latency slack.
		return b >= a*0.9 && b < a*1.5+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// --- Extreme skew ---

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
	sec := matrixSeconds(t, f, m)
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
	want := float64(3<<30) / 6.8e9
	if sec := matrixSeconds(t, f, m); sec < want {
		t.Errorf("one-to-all exchange = %v s, want ≥ %v", sec, want)
	}
}

func TestExchangeSingleNodeFabricMatrix(t *testing.T) {
	if sec := matrixSeconds(t, FDRCluster(1), [][]int64{{1 << 40}}); sec != 0 {
		t.Errorf("single-node matrix exchange = %v s, want 0", sec)
	}
}

func TestExchangeZeroMatrix(t *testing.T) {
	m := make([][]int64, 8)
	for i := range m {
		m[i] = make([]int64, 8)
	}
	if sec := matrixSeconds(t, FDRCluster(8), m); sec != 0 {
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

// TestFasterFabricShortensExchange: the same shuffle on links ten times as
// fast takes less time, and on a bandwidth-bound shuffle close to a tenth.
func TestFasterFabricShortensExchange(t *testing.T) {
	slow := FDRCluster(4)
	fast := FDRCluster(4)
	fast.LinkGBps *= 10
	pieces := symmetricPieces(4, 1<<20)
	a, err := quiet(t, slow, pieces)
	if err != nil {
		t.Fatal(err)
	}
	b, err := quiet(t, fast, pieces)
	if err != nil {
		t.Fatal(err)
	}
	if b.Seconds >= a.Seconds/5 {
		t.Errorf("10× fabric: %v s, against %v s on the slow one", b.Seconds, a.Seconds)
	}
}

// --- Flows, messages and faults ---

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

// TestExchangePiecesFaultFreeMatchesMatrix: with nothing injected, the
// exchange is the closed form over the byte matrix, whether each flow is one
// piece or many pieces that do not align with message boundaries.
func TestExchangePiecesFaultFreeMatchesMatrix(t *testing.T) {
	f := FDRCluster(4)
	ragged := symmetricPieces(4, 10<<20)
	for k := 0; k < 300; k++ {
		ragged = append(ragged, Piece{Src: k % 4, Dst: (k/4 + k) % 4, Bytes: int64(k*7919) % (300 << 10), ID: uint64(k)})
	}
	for _, pieces := range [][]Piece{symmetricPieces(4, 10<<20), ragged} {
		m := make([][]int64, 4)
		for i := range m {
			m[i] = make([]int64, 4)
		}
		for _, p := range pieces {
			m[p.Src][p.Dst] += p.Bytes
		}
		st, err := quiet(t, f, pieces)
		if err != nil {
			t.Fatal(err)
		}
		if want := closedForm(f, m); math.Abs(st.Seconds-want)/want > 1e-9 {
			t.Errorf("exchange %v s, closed form %v s", st.Seconds, want)
		}
		if st.Retries != 0 || st.Corrupted != 0 || st.CorruptPieces != 0 {
			t.Errorf("fault-free exchange reported faults: %+v", st)
		}
		for i, oc := range st.Outcomes {
			if oc != PieceDelivered {
				t.Fatalf("piece %d outcome %v", i, oc)
			}
		}
	}
}

// TestExchangeCoalescesAFlow: k pieces on one flow that together fit one
// message cost one message and one verb latency, not k.
func TestExchangeCoalescesAFlow(t *testing.T) {
	f := FDRCluster(2)
	var pieces []Piece
	var total int64
	for k := 0; k < 16; k++ {
		pieces = append(pieces, Piece{Src: 0, Dst: 1, Bytes: 1000 + int64(k), ID: uint64(k)})
		total += 1000 + int64(k)
	}
	st, err := quiet(t, f, pieces)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(total)/(f.LinkGBps*1e9) + f.LatencyUS*1e-6
	if math.Abs(st.Seconds-want) > 1e-15 {
		t.Errorf("%d pieces of %d bytes in all took %v s, want one message's %v s", len(pieces), total, st.Seconds, want)
	}
}

// TestExchangeCorruptMessageFailsItsPieces: a corrupt message fails the
// checksum of every piece it carried — here every message carries eight.
func TestExchangeCorruptMessageFailsItsPieces(t *testing.T) {
	f := &Fabric{Nodes: 2, LinkGBps: 6.8, LatencyUS: 1.3, MessageBytes: 8 << 10}
	var pieces []Piece
	for k := 0; k < 64; k++ {
		pieces = append(pieces, Piece{Src: 0, Dst: 1, Bytes: 1 << 10, ID: uint64(k)})
	}
	var corrupt int64
	for seed := uint64(1); seed <= 20; seed++ {
		st, err := f.Exchange(pieces, ExchangeFaults{Injector: mustInjector(t, faults.Scenario{Seed: seed, CorruptProb: 0.2})})
		if err != nil {
			t.Fatal(err)
		}
		if st.CorruptPieces != 8*st.Corrupted {
			t.Errorf("seed %d: %d corrupt messages failed %d piece checksums, want 8 each", seed, st.Corrupted, st.CorruptPieces)
		}
		corrupt += st.Corrupted
	}
	if corrupt == 0 {
		t.Error("20 % corruption corrupted nothing in 20 seeds")
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
		st, err := f.Exchange(symmetricPieces(4, 4<<20), ExchangeFaults{Injector: mustInjector(t, s)})
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
	c, err := f.Exchange(symmetricPieces(4, 4<<20), ExchangeFaults{Injector: mustInjector(t, s)})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Retries, c.Retries) && reflect.DeepEqual(a.Seconds, c.Seconds) {
		t.Error("different seeds produced identical retry count and timing")
	}
}

func TestExchangePiecesDropsCostTimeAndRetries(t *testing.T) {
	f := FDRCluster(2)
	clean, err := f.Exchange(symmetricPieces(2, 8<<20), ExchangeFaults{Injector: mustInjector(t, faults.Scenario{Seed: 5})})
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := f.Exchange(symmetricPieces(2, 8<<20), ExchangeFaults{
		Injector: mustInjector(t, faults.Scenario{Seed: 5, DropProb: 0.2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Retries == 0 {
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
	st, err := f.Exchange(symmetricPieces(2, 32<<20), ExchangeFaults{
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
	clean, err := f.Exchange(symmetricPieces(2, 16<<20), ExchangeFaults{Injector: mustInjector(t, faults.Scenario{Seed: 3})})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := f.Exchange(symmetricPieces(2, 16<<20), ExchangeFaults{
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
	clean, err := f.Exchange(symmetricPieces(4, 8<<20), ExchangeFaults{Injector: mustInjector(t, faults.Scenario{Seed: 11})})
	if err != nil {
		t.Fatal(err)
	}
	strag, err := f.Exchange(symmetricPieces(4, 8<<20), ExchangeFaults{
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
	st, err := f.Exchange(pieces, ExchangeFaults{
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
	st, err := f.Exchange(symmetricPieces(2, 4<<20), ExchangeFaults{
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
	if st.Retries != maxAttempts-1 {
		t.Errorf("dead destination cost %d retries; want %d", st.Retries, maxAttempts-1)
	}
	lo := maxAttempts*f.timeoutUS() + backoffUS(1, 0) + backoffUS(2, 0) + backoffUS(3, 0) + backoffUS(4, 0)
	hi := maxAttempts*f.timeoutUS() + backoffUS(1, 1) + backoffUS(2, 1) + backoffUS(3, 1) + backoffUS(4, 1)
	if us := st.Seconds * 1e6; us < lo-1e-6 || us > hi+1e-6 {
		t.Errorf("exhausted budget took %v µs, want within [%v, %v]", us, lo, hi)
	}
}

// TestExchangeDeadPeerBurnsBudgetOncePerFlow: however many pieces a flow
// into a dead node holds, it burns the retry budget once, and every piece
// on it fails.
func TestExchangeDeadPeerBurnsBudgetOncePerFlow(t *testing.T) {
	f := FDRCluster(3)
	var pieces []Piece
	for k := 0; k < 12; k++ {
		pieces = append(pieces, Piece{Src: 1 + k%2, Dst: 0, Bytes: 1 << 20, ID: uint64(k)})
	}
	st, err := f.Exchange(pieces, ExchangeFaults{
		Injector:     mustInjector(t, faults.Scenario{Seed: 23, Crashes: []faults.Crash{{Node: 0, AfterFraction: 0}}}),
		ApplyCrashes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Retries != 2*(maxAttempts-1) {
		t.Errorf("two flows into a dead node retried %d times, want %d", st.Retries, 2*(maxAttempts-1))
	}
	for i, oc := range st.Outcomes {
		if oc != PieceFailed {
			t.Errorf("piece %d into the dead node: %v, want failed", i, oc)
		}
	}
	if !reflect.DeepEqual(st.FailedNodes, []int{0}) {
		t.Errorf("failed nodes %v, want [0]", st.FailedNodes)
	}
}

func TestExchangePiecesCrashIgnoredWithoutApply(t *testing.T) {
	f := FDRCluster(2)
	st, err := f.Exchange(symmetricPieces(2, 4<<20), ExchangeFaults{
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
	if _, err := f.Exchange(nil, ExchangeFaults{}); err == nil {
		t.Error("nil injector accepted")
	}
	if _, err := f.Exchange([]Piece{{Src: 0, Dst: 5, Bytes: 1}}, ExchangeFaults{Injector: inj}); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if _, err := f.Exchange([]Piece{{Src: 0, Dst: 1, Bytes: -1}}, ExchangeFaults{Injector: inj}); err == nil {
		t.Error("negative piece size accepted")
	}
	crashTooBig := mustInjector(t, faults.Scenario{Seed: 1, Crashes: []faults.Crash{{Node: 7, AfterFraction: 0.5}}})
	if _, err := f.Exchange(symmetricPieces(2, 1<<20), ExchangeFaults{Injector: crashTooBig, ApplyCrashes: true}); err == nil {
		t.Error("crash of out-of-range node accepted")
	}
}

// TestExchangeNoCliffs is the no-cliff gate. Over a dense sweep of the drop
// rate, and separately of the corrupt rate, from 0 to 0.2, exchange time,
// retries and retransmitted bytes never decrease, and the rate-0 point is
// the exchange with nothing injected. Workloads: a symmetric exchange and a
// skewed all-to-one exchange, several unaligned pieces per flow. Every
// point must deliver every piece — the retry budget is sized for these
// rates, and a piece lost for good would take its remaining traffic off
// the receiving port.
func TestExchangeNoCliffs(t *testing.T) {
	f := &Fabric{Nodes: 4, LinkGBps: 6.8, LatencyUS: 1.3, MessageBytes: 64 << 10}
	var symmetric, skewed []Piece
	for k := 0; k < 96; k++ {
		src, dst := k%4, (k/4+1+k)%4
		if src != dst {
			symmetric = append(symmetric, Piece{Src: src, Dst: dst, Bytes: 40<<10 + int64(k)*97, ID: uint64(k)})
		}
		skewed = append(skewed, Piece{Src: 1 + k%3, Dst: 0, Bytes: 40<<10 + int64(k)*97, ID: uint64(k)})
	}
	for _, w := range []struct {
		name   string
		pieces []Piece
	}{{"symmetric", symmetric}, {"all-to-one", skewed}} {
		none, err := quiet(t, f, w.pieces)
		if err != nil {
			t.Fatal(err)
		}
		for _, drop := range []bool{true, false} {
			var prev *ExchangeStats
			for i := 0; i <= 400; i++ {
				s := faults.Scenario{Seed: 2026}
				if drop {
					s.DropProb = float64(i) * 0.0005
				} else {
					s.CorruptProb = float64(i) * 0.0005
				}
				st, err := f.Exchange(w.pieces, ExchangeFaults{Injector: mustInjector(t, s)})
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 && !reflect.DeepEqual(st, none) {
					t.Fatalf("%s: rate 0 differs from nothing injected:\n%+v\n%+v", w.name, st, none)
				}
				for j, oc := range st.Outcomes {
					if oc != PieceDelivered {
						t.Fatalf("%s, %+v: piece %d %v", w.name, s, j, oc)
					}
				}
				if prev != nil && (st.Seconds < prev.Seconds || st.Retries < prev.Retries || st.RetransmittedBytes < prev.RetransmittedBytes) {
					t.Fatalf("%s, %+v: %v s, %d retries, %d B resent after %v s, %d, %d B at the previous rate",
						w.name, s, st.Seconds, st.Retries, st.RetransmittedBytes, prev.Seconds, prev.Retries, prev.RetransmittedBytes)
				}
				prev = st
			}
			if prev.Retries == 0 || prev.RetransmittedBytes == 0 {
				t.Errorf("%s, drop=%v: rate 0.2 retransmitted nothing", w.name, drop)
			}
		}
	}
}
