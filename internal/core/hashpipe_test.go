package core

import (
	"slices"
	"testing"

	"fpgapart/internal/hashutil"
)

func TestHashPipelineLatency(t *testing.T) {
	p := NewHashPipeline()
	const key = uint32(0xdeadbeef)
	if _, ok := p.Cycle(key, true); ok {
		t.Fatal("hash emerged on the insertion cycle")
	}
	for c := 1; c < hashPipelineDepth; c++ {
		if _, ok := p.Cycle(0, false); ok {
			t.Fatalf("hash emerged after %d cycles, want %d", c+1, hashPipelineDepth)
		}
	}
	h, ok := p.Cycle(0, false)
	if !ok {
		t.Fatalf("no hash after %d cycles", hashPipelineDepth)
	}
	if want := hashutil.Murmur32Finalizer(key); h != want {
		t.Fatalf("pipeline hash = %#x, want %#x", h, want)
	}
	if !p.Drained() {
		t.Fatal("pipeline not drained after sole key emerged")
	}
}

func TestHashPipelineThroughput(t *testing.T) {
	keys := make([]uint32, 1000)
	for i := range keys {
		keys[i] = uint32(i) * 2654435761 // golden-ratio spread
	}

	// Fully pipelined: n keys back-to-back finish in n + depth cycles.
	p := NewHashPipeline()
	var hashes []uint32
	for c := 0; c < len(keys)+hashPipelineDepth; c++ {
		k, valid := uint32(0), c < len(keys)
		if valid {
			k = keys[c]
		}
		if h, ok := p.Cycle(k, valid); ok {
			hashes = append(hashes, h)
		}
	}
	if len(hashes) != len(keys) || !p.Drained() {
		t.Fatalf("%d hashes for %d keys after %d cycles, drained %v", len(hashes), len(keys), len(keys)+hashPipelineDepth, p.Drained())
	}
	if all := NewHashPipeline().HashAll(keys); !slices.Equal(all, hashes) {
		t.Fatal("HashAll disagrees with driving Cycle key by key")
	}
	for i, k := range keys {
		if want := hashutil.Murmur32Finalizer(k); hashes[i] != want {
			t.Fatalf("key %#x: pipeline = %#x, software = %#x", k, hashes[i], want)
		}
	}
}

func TestHashPipelineBubbles(t *testing.T) {
	// Invalid cycles interleaved between keys must not corrupt in-flight
	// values or produce spurious outputs.
	keys := []uint32{0, 1, 0xffffffff, 0x12345678}
	p := NewHashPipeline()
	var got []uint32
	for _, k := range keys {
		if h, ok := p.Cycle(k, true); ok {
			got = append(got, h)
		}
		for i := 0; i < 3; i++ { // three bubbles after every key
			if h, ok := p.Cycle(0xbad, false); ok {
				got = append(got, h)
			}
		}
	}
	for !p.Drained() {
		if h, ok := p.Cycle(0xbad, false); ok {
			got = append(got, h)
		}
	}
	if len(got) != len(keys) {
		t.Fatalf("got %d hashes for %d keys", len(got), len(keys))
	}
	for i, k := range keys {
		if want := hashutil.Murmur32Finalizer(k); got[i] != want {
			t.Fatalf("key %#x: pipeline = %#x, software = %#x", k, got[i], want)
		}
	}
}
