package rdma

import (
	"math"
	"testing"
	"testing/quick"
)

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

// uniformExchange is ExchangeSeconds for a balanced shuffle of total bytes
// per node: each node sends total/n to every other node.
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
	return f.ExchangeSeconds(m)
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
	m := [][]int64{
		{0, 0, 0},
		{1 << 30, 0, 0},
		{1 << 30, 0, 0},
	}
	sec, err := f.ExchangeSeconds(m)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(2<<30) / 6.8e9 // node 0 receives 2 GB
	if math.Abs(sec-want)/want > 0.05 {
		t.Errorf("skewed exchange = %v s, want ≈ %v", sec, want)
	}
}

func TestExchangeDiagonalFree(t *testing.T) {
	// Local (i == i) bytes cost nothing.
	f := FDRCluster(2)
	m := [][]int64{
		{1 << 40, 0},
		{0, 1 << 40},
	}
	sec, err := f.ExchangeSeconds(m)
	if err != nil {
		t.Fatal(err)
	}
	if sec != 0 {
		t.Errorf("local-only exchange = %v s, want 0", sec)
	}
}

func TestExchangeValidation(t *testing.T) {
	f := FDRCluster(2)
	if _, err := f.ExchangeSeconds([][]int64{{0, 0}}); err == nil {
		t.Error("short matrix accepted")
	}
	if _, err := f.ExchangeSeconds([][]int64{{0}, {0, 0}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := f.ExchangeSeconds([][]int64{{0, -1}, {0, 0}}); err == nil {
		t.Error("negative transfer accepted")
	}
}

func TestLatencyTermMatters(t *testing.T) {
	// Tiny transfers are latency-bound: halving the message size must not
	// change the time of a single small message, but many small messages
	// accumulate latency.
	f := &Fabric{Nodes: 2, LinkGBps: 100, LatencyUS: 10, MessageBytes: 1 << 10}
	m := [][]int64{{0, 64 << 10}, {0, 0}} // 64 messages
	sec, err := f.ExchangeSeconds(m)
	if err != nil {
		t.Fatal(err)
	}
	if sec < 64*10e-6 {
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
