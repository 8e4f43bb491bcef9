package rdma

import (
	"encoding/binary"
	"math"
	"testing"

	"fpgapart/internal/faults"
)

// FuzzExchange runs the exchange over arbitrary piece lists and scenarios:
// zero-byte and local pieces, pieces naming nodes the fabric lacks, one
// node, crashes at fraction 0 and 1, drop and corrupt rates near 1. Every 4
// bytes of data are one piece: source, destination, and a little-endian
// size less one. The exchange returns an error, or settles every piece as
// delivered, failed or unsent in a finite, non-negative time; it never
// panics and never hangs (the fuzzer's deadline is the watchdog).
func FuzzExchange(f *testing.F) {
	// Node n is byte n+1; sizes are little-endian, so {1, 2, 1, 0} is an
	// empty piece from node 0 to node 1.
	f.Add(uint64(1), uint8(1), uint8(4), uint8(0), uint8(0), uint8(0), uint8(0), false, []byte{1, 1, 16, 0, 1, 1, 1, 0})
	f.Add(uint64(2), uint8(4), uint8(1), uint8(0), uint8(0), uint8(1), uint8(0), true,
		[]byte{1, 2, 1, 0, 2, 1, 0, 8, 3, 3, 0, 8, 2, 3, 64, 0, 4, 2, 255, 255, 2, 4, 1, 1})
	f.Add(uint64(3), uint8(4), uint8(2), uint8(0), uint8(0), uint8(2), uint8(255), true,
		[]byte{1, 3, 0, 9, 3, 1, 0, 9, 2, 3, 0, 9, 3, 2, 0, 9, 3, 4, 0, 9})
	f.Add(uint64(4), uint8(2), uint8(1), uint8(127), uint8(127), uint8(0), uint8(128), false,
		[]byte{1, 2, 0, 16, 2, 1, 0, 16, 1, 2, 4, 0})
	f.Add(uint64(5), uint8(3), uint8(0), uint8(0), uint8(0), uint8(9), uint8(0), true, []byte{1, 6, 1, 0, 0, 1, 0, 0})
	f.Add(uint64(6), uint8(2), uint8(255), uint8(0), uint8(0), uint8(0), uint8(0), false, []byte{1, 2, 255, 255, 1, 2, 255, 255})
	f.Fuzz(func(t *testing.T, seed uint64, nodes, msgUnits, drop, corrupt, crashNode, crashAt uint8, applyCrashes bool, data []byte) {
		if len(data) > 4*64 {
			t.Skip("bound the per-input work")
		}
		fab := &Fabric{Nodes: int(nodes % 9), LinkGBps: 6.8, LatencyUS: 1.3, MessageBytes: int(msgUnits) * 256}
		if msgUnits == 255 {
			fab.MessageBytes = math.MaxInt // no flow fills one message
		}
		inj, err := faults.New(faults.Scenario{
			Seed: seed, DropProb: float64(drop) / 256, CorruptProb: float64(corrupt) / 256,
			Crashes: []faults.Crash{{Node: int(crashNode % 9), AfterFraction: float64(crashAt) / 255}},
		})
		if err != nil {
			return
		}
		var pieces []Piece
		for i := 0; i+4 <= len(data); i += 4 {
			pieces = append(pieces, Piece{
				Src: int(data[i]%10) - 1, Dst: int(data[i+1]%10) - 1,
				Bytes: int64(binary.LittleEndian.Uint16(data[i+2:])) - 1, ID: uint64(i / 4),
			})
		}
		st, err := fab.Exchange(pieces, ExchangeFaults{Injector: inj, ApplyCrashes: applyCrashes})
		if err != nil {
			return
		}
		if len(st.Outcomes) != len(pieces) {
			t.Fatalf("%d outcomes for %d pieces", len(st.Outcomes), len(pieces))
		}
		for i, oc := range st.Outcomes {
			p := pieces[i]
			switch {
			case oc != PieceDelivered && oc != PieceFailed && oc != PieceUnsent:
				t.Fatalf("piece %d: outcome %d", i, oc)
			case (p.Src == p.Dst || p.Bytes == 0) && oc != PieceDelivered:
				t.Fatalf("local or empty piece %d %+v: %v", i, p, oc)
			case oc == PieceUnsent && !applyCrashes:
				t.Fatalf("piece %d unsent without a crash", i)
			}
		}
		if math.IsNaN(st.Seconds) || math.IsInf(st.Seconds, 0) || st.Seconds < 0 {
			t.Fatalf("exchange time %v s", st.Seconds)
		}
	})
}
