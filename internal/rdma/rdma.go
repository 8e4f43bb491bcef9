// Package rdma models the rack-scale RDMA fabric of the paper's second
// future-work use case (Section 6, following Barthels et al.): the FPGA
// partitioner writes partitions directly to remote machines, so a
// distributed join's network exchange happens at partitioning speed.
//
// The model is deliberately simple — per-link bandwidth, per-message
// latency, full-duplex ports, all-to-all exchange — because the quantity of
// interest is the exchange time of a partitioned shuffle, not packet-level
// behaviour.
package rdma

import "fmt"

// Fabric describes a symmetric RDMA network.
type Fabric struct {
	// Nodes in the cluster.
	Nodes int
	// LinkGBps is each node's injection (and reception) bandwidth in GB/s
	// (e.g. 6.8 for FDR InfiniBand as in Barthels et al.).
	LinkGBps float64
	// LatencyUS is the one-sided verb latency in microseconds.
	LatencyUS float64
	// MessageBytes is the RDMA write size the exchange uses; smaller
	// messages pay proportionally more latency overhead.
	MessageBytes int
}

// FDRCluster returns an n-node fabric modeled on the FDR InfiniBand
// clusters of the distributed-join literature: ~6.8 GB/s per port, ~1.3 µs
// verbs latency, 256 KB exchange messages.
func FDRCluster(n int) *Fabric {
	return &Fabric{Nodes: n, LinkGBps: 6.8, LatencyUS: 1.3, MessageBytes: 256 << 10}
}

// Validate reports whether the fabric parameters are usable.
func (f *Fabric) Validate() error {
	if f.Nodes < 1 {
		return fmt.Errorf("rdma: %d nodes", f.Nodes)
	}
	if f.LinkGBps <= 0 {
		return fmt.Errorf("rdma: link bandwidth %v GB/s", f.LinkGBps)
	}
	if f.LatencyUS < 0 {
		return fmt.Errorf("rdma: negative latency")
	}
	if f.MessageBytes <= 0 {
		return fmt.Errorf("rdma: message size %d", f.MessageBytes)
	}
	return nil
}

// ExchangeSeconds returns the time for an all-to-all exchange in which
// every node sends sendBytes[i][j] bytes to node j (i == j entries are
// local and free). The exchange is bottlenecked by the busiest port:
// max over nodes of (bytes injected, bytes received) / link bandwidth,
// plus message latencies on the critical path.
func (f *Fabric) ExchangeSeconds(sendBytes [][]int64) (float64, error) {
	if err := f.Validate(); err != nil {
		return 0, err
	}
	if len(sendBytes) != f.Nodes {
		return 0, fmt.Errorf("rdma: matrix has %d rows for %d nodes", len(sendBytes), f.Nodes)
	}
	var worst float64
	for i := range sendBytes {
		if len(sendBytes[i]) != f.Nodes {
			return 0, fmt.Errorf("rdma: row %d has %d entries for %d nodes", i, len(sendBytes[i]), f.Nodes)
		}
		var out, in int64
		var outMsgs int64
		for j := range sendBytes[i] {
			if sendBytes[i][j] < 0 {
				return 0, fmt.Errorf("rdma: negative transfer size at [%d][%d]", i, j)
			}
			if i == j {
				continue
			}
			out += sendBytes[i][j]
			in += sendBytes[j][i]
			if sendBytes[i][j] > 0 {
				outMsgs += (sendBytes[i][j] + int64(f.MessageBytes) - 1) / int64(f.MessageBytes)
			}
		}
		port := out
		if in > port {
			port = in
		}
		t := float64(port)/(f.LinkGBps*1e9) + float64(outMsgs)*f.LatencyUS*1e-6
		if t > worst {
			worst = t
		}
	}
	return worst, nil
}
