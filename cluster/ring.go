// Package cluster is the sharded serving frontend of the production-scale
// system the ROADMAP aims at: a consistent-hash router that spreads an
// open-loop request stream from many simulated tenants across N partserver
// shards, scatter-gathers the per-shard results back into one report, and
// pins cluster-level tail latencies (avg/p95/p99, QPS) on the deterministic
// virtual-time path.
//
// Everything the router decides — ring placement, per-tenant admission
// quotas, crash failover — is a pure function of (request stream, config,
// seed): the ring hashes with the same murmur finalizer the FPGA circuit
// synthesizes (internal/core.HashPipeline models it stage by stage,
// internal/hashutil provides the software twin), quota deferrals are
// computed in arrival order on virtual time, and shard crash points derive
// from internal/faults' seeded scenario replay. Two runs with the same seed
// therefore render byte-identical reports, traces and metric snapshots,
// even though shards with nothing between them are stepped on concurrent
// goroutines (advanceApart) and a hedged run computes job outcomes ahead of
// its loop on another (lookahead). The package sits on the fpgavet deterministic
// path, which machine-enforces the no-wall-clock / no-global-rand /
// no-map-range discipline this rests on.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"fpgapart/internal/hashutil"
)

// MaxVNodes bounds the virtual-node count per shard. The bound guarantees
// point-hash injectivity: PointHash feeds (shard, vnode) through the
// bijective fmix64 finalizer, so distinct inputs give distinct ring points
// as long as the packed input is unique — no tie-breaking is ever needed
// and ring construction is order-independent by construction.
const MaxVNodes = 1 << 20

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash  uint64
	shard int
}

// Ring is a consistent-hash ring with virtual nodes. Each member shard
// contributes VNodes points, placed by hashing (shard, vnode) through the
// murmur3 fmix64 finalizer — the 64-bit sibling of the five-stage pipeline
// the partitioner circuit implements (internal/core.HashPipeline). A key is
// served by the first point clockwise from its own hash.
//
// Construction is deterministic and order-independent: the same member set
// and vnode count always produce the identical ring, whatever order the
// members were listed in.
type Ring struct {
	vnodes int
	shards []int // ascending member ids
	points []ringPoint
}

// NewRing builds a ring over the given shard ids with vnodes virtual nodes
// per shard. Duplicate ids are rejected; ids may be arbitrary non-negative
// integers (shard identity survives joins and leaves).
func NewRing(shards []int, vnodes int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard")
	}
	if vnodes < 1 || vnodes > MaxVNodes {
		return nil, fmt.Errorf("cluster: vnodes %d outside [1, %d]", vnodes, MaxVNodes)
	}
	members := append([]int(nil), shards...)
	sort.Ints(members)
	for i, id := range members {
		if id < 0 {
			return nil, fmt.Errorf("cluster: negative shard id %d", id)
		}
		if i > 0 && members[i-1] == id {
			return nil, fmt.Errorf("cluster: duplicate shard id %d", id)
		}
	}
	r := &Ring{
		vnodes: vnodes,
		shards: members,
		points: make([]ringPoint, 0, len(members)*vnodes),
	}
	for _, id := range members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: PointHash(id, v), shard: id})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		return r.points[a].hash < r.points[b].hash
	})
	return r, nil
}

// PointHash places virtual node v of a shard on the ring: the packed
// (shard, vnode) identity through the fmix64 finalizer. fmix64 is a
// bijection, so distinct (shard, vnode) pairs — within the MaxVNodes bound —
// never collide.
func PointHash(shard, vnode int) uint64 {
	return hashutil.Murmur64Finalizer(uint64(shard+1)<<20 | uint64(vnode))
}

// KeyHash maps a routing key onto the ring's hash space with the same
// finalizer the circuit's hash module computes.
func KeyHash(key uint64) uint64 {
	return hashutil.Murmur64Finalizer(key)
}

// Shards returns the member ids in ascending order (a copy).
func (r *Ring) Shards() []int { return append([]int(nil), r.shards...) }

// succ returns the index of the first point at or clockwise of hash h,
// wrapping past the top of the hash space.
func (r *Ring) succ(h uint64) int {
	i, _ := slices.BinarySearchFunc(r.points, h, func(p ringPoint, h uint64) int { return cmp.Compare(p.hash, h) })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Shard returns the member serving key: the owner of the first virtual node
// clockwise from the key's hash.
func (r *Ring) Shard(key uint64) int {
	return r.points[r.succ(KeyHash(key))].shard
}

// ShardSkipping returns the first member clockwise from key whose id
// satisfies alive — the deterministic failover walk a router performs when
// the primary owner has fail-stopped. ok is false when no live member
// remains.
func (r *Ring) ShardSkipping(key uint64, alive func(shard int) bool) (shard int, ok bool) {
	start := r.succ(KeyHash(key))
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if alive(p.shard) {
			return p.shard, true
		}
	}
	return -1, false
}

// Member reports whether id is currently a ring member.
func (r *Ring) Member(id int) bool {
	i := sort.SearchInts(r.shards, id)
	return i < len(r.shards) && r.shards[i] == id
}

// ReplicaSet returns the first n distinct members clockwise from the key's
// hash — the key's replica set — in buf's array, which it grows if it is
// short: a caller that keeps buf walks replica sets without allocating.
// Element 0 is the primary owner (== Shard); the rest are the failover/hedge
// targets in clockwise-encounter order. When the ring has fewer than n
// members the whole membership is returned, so the set is always distinct
// by construction, even when N ≤ R.
//
//fpgavet:hotpath
func (r *Ring) ReplicaSet(buf []int, key uint64, n int) []int {
	n = min(n, len(r.shards))
	if n < 1 {
		return buf[:0]
	}
	out := slices.Grow(buf[:0], n)
	start := r.succ(KeyHash(key))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		if s := r.points[(start+i)%len(r.points)].shard; !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	return out
}

// WithShard returns a new ring with id joined (the rebalancing target of a
// scale-out step). The receiver is unchanged.
func (r *Ring) WithShard(id int) (*Ring, error) {
	return NewRing(append(r.Shards(), id), r.vnodes)
}

// WithoutShard returns a new ring with id removed (a planned leave). The
// receiver is unchanged.
func (r *Ring) WithoutShard(id int) (*Ring, error) {
	members := make([]int, 0, len(r.shards))
	found := false
	for _, s := range r.shards {
		if s == id {
			found = true
			continue
		}
		members = append(members, s)
	}
	if !found {
		return nil, fmt.Errorf("cluster: shard %d is not a ring member", id)
	}
	return NewRing(members, r.vnodes)
}

// Router assigns keys to shards; Ring and Modulo both satisfy it, so
// rebalancing measurements can diff the two policies over one key set.
type Router interface {
	Shard(key uint64) int
}

// Modulo is the naive hash-mod-N baseline router: robust to skew (it uses
// the same murmur finalizer) but pathological under membership change —
// growing N reshuffles almost every key, which is exactly what the ring's
// virtual nodes avoid.
type Modulo int

// Shard implements Router.
func (m Modulo) Shard(key uint64) int {
	return int(KeyHash(key) % uint64(m))
}

// MovedPermyriad counts how many keys change owner between two routers, in
// permyriad (1/10000) of the key population — the moved-key fraction of a
// shard join or leave, in the fixed-point form the gated BENCH metrics use.
// A ring join of one shard into N moves ≈ 10000/(N+1); a modulo join
// reshuffles ≈ 10000·N/(N+1).
func MovedPermyriad(keys []uint64, before, after Router) int64 {
	if len(keys) == 0 {
		return 0
	}
	var moved int64
	for _, k := range keys {
		if before.Shard(k) != after.Shard(k) {
			moved++
		}
	}
	return moved * 10000 / int64(len(keys))
}
