package core

// hashStages are the five operations of the murmur finalizer pipeline
// (Code 3 of the paper), one per register stage. In the VHDL each line is a
// clocked assignment `stage_k <= op(stage_{k-1})`, so stage k holds the
// value after the first k+1 operations.
var hashStages = [hashPipelineDepth]func(uint32) uint32{
	func(k uint32) uint32 { return k ^ k>>16 },
	func(k uint32) uint32 { return k * 0x85ebca6b },
	func(k uint32) uint32 { return k ^ k>>13 },
	func(k uint32) uint32 { return k * 0xc2b2ae35 },
	func(k uint32) uint32 { return k ^ k>>16 },
}

// HashPipeline is a literal, cycle-stepped model of the five-stage murmur
// hash module: a key inserted on cycle t emerges fully hashed on cycle t+5,
// with one result per cycle at full throughput.
//
// The partitioner circuit itself ([ring].pipe) models the module as an
// opaque fpga.Reg of the same depth and applies the software finalizer at
// the tail; HashPipeline exists to prove the staged decomposition computes
// the identical function (see the hashutil fuzz test), so the latency model
// and the arithmetic can be trusted independently. It is a reference: only
// tests construct one.
type HashPipeline struct {
	vals  [hashPipelineDepth]uint32
	valid [hashPipelineDepth]bool
}

// NewHashPipeline returns an empty five-stage hash pipeline.
func NewHashPipeline() *HashPipeline {
	return &HashPipeline{}
}

// Cycle advances the clock one edge: the value leaving the last stage — the
// finished hash — is clocked out, every stage applies its operation to its
// predecessor's register, and the new key (if inValid) enters stage 0.
func (p *HashPipeline) Cycle(in uint32, inValid bool) (out uint32, outValid bool) {
	last := hashPipelineDepth - 1
	out, outValid = p.vals[last], p.valid[last]
	for s := last; s > 0; s-- {
		p.vals[s], p.valid[s] = hashStages[s](p.vals[s-1]), p.valid[s-1]
	}
	p.vals[0], p.valid[0] = hashStages[0](in), inValid
	return out, outValid
}

// Drained reports whether any keys are still in flight.
func (p *HashPipeline) Drained() bool {
	for _, v := range p.valid {
		if v {
			return false
		}
	}
	return true
}

// HashAll streams the keys through the pipeline back-to-back and returns
// their hashes in order, draining the pipeline at the end. It is the
// convenience wrapper the parity tests use; latency-sensitive callers drive
// Cycle directly.
func (p *HashPipeline) HashAll(keys []uint32) []uint32 {
	hashes := make([]uint32, 0, len(keys))
	for _, k := range keys {
		if h, ok := p.Cycle(k, true); ok {
			hashes = append(hashes, h)
		}
	}
	for !p.Drained() {
		if h, ok := p.Cycle(0, false); ok {
			hashes = append(hashes, h)
		}
	}
	return hashes
}
