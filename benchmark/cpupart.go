package main

import (
	"fmt"
	"time"

	"fpgapart/internal/cpupart"
	"fpgapart/partition"
	"fpgapart/workload"
)

// cpuOp describes one class of the cpu_partition workload: calls of the
// software partitioner on one relation.
type cpuOp struct {
	name  string
	rel   *workload.Relation
	opts  partition.CPUOptions
	calls int // calls per op (the in-cache class makes several)
}

// naiveReference is the reference of a CPU op: the tuple-at-a-time scatter
// of Code 1, which shares no inner loop with the buffered partitioner under
// test. (The circuit is the reference the issue names, but simulating 2^22
// tuples four times costs more than the whole run; the two backends are
// checked against each other on every op of the circuit workloads, and the
// in-cache class below does take its reference from the circuit.)
func (r references) naiveReference(rel *workload.Relation, o partition.CPUOptions) (digest, error) {
	return r.get(rel, o.Partitions, o.Hash, func() (partition.Partitioner, error) {
		return partition.NewCPU(partition.CPUOptions{Partitions: o.Partitions, Hash: o.Hash, Threads: 1, Naive: true})
	})
}

func (r references) fpgaReference(rel *workload.Relation, o partition.CPUOptions) (digest, error) {
	return r.get(rel, o.Partitions, o.Hash, func() (partition.Partitioner, error) {
		return partition.NewFPGA(partition.FPGAOptions{Partitions: o.Partitions, Hash: o.Hash, Format: partition.HistMode})
	})
}

func setupCPUPartition(seed int64, sc scale, traced bool) (*bench, error) {
	gen := newGenerator(seed)
	uniform, err := gen.relation(workload.Random, 8, sc.cpuN)
	if err != nil {
		return nil, err
	}
	zipf, err := gen.zipf(1.0, sc.cpuN)
	if err != nil {
		return nil, err
	}
	small, err := gen.relation(workload.Random, 8, sc.incacheN)
	if err != nil {
		return nil, err
	}
	small256 := min(256, sc.fan)
	ops := []cpuOp{
		{name: "hash_t1", rel: uniform, opts: partition.CPUOptions{Partitions: sc.fan, Hash: true, Threads: 1}},
		{name: "radix_t1", rel: uniform, opts: partition.CPUOptions{Partitions: sc.fan, Threads: 1}},
		{name: "hash_t2", rel: uniform, opts: partition.CPUOptions{Partitions: sc.fan, Hash: true, Threads: 2}},
		{name: "hash_t2_fan256", rel: uniform, opts: partition.CPUOptions{Partitions: small256, Hash: true, Threads: 2}},
		{name: "hash_t2_zipf", rel: zipf, opts: partition.CPUOptions{Partitions: sc.fan, Hash: true, Threads: 2}},
		{name: "hash_t1_incache", rel: small, calls: 16, opts: partition.CPUOptions{Partitions: small256, Hash: true, Threads: 1}},
	}

	checksums := sweeps{}
	refs := references{}
	wl := &bench{name: "cpu_partition"}
	for _, o := range ops {
		o := o
		if o.calls == 0 {
			o.calls = 1
		}
		reference := refs.naiveReference
		if o.rel == small {
			reference = refs.fpgaReference
		}
		ref, err := reference(o.rel, o.opts)
		if err != nil {
			return nil, fmt.Errorf("%s: reference: %w", o.name, err)
		}
		p, err := partition.NewCPU(o.opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.name, err)
		}
		c := &class{name: o.name, fn: "partition.Partition", tuples: int64(o.calls * o.rel.NumTuples)}
		c.op = func() (any, error) {
			results := make([]*partition.Result, o.calls)
			for i := range results {
				res, err := p.Partition(o.rel)
				if err != nil {
					return nil, err
				}
				results[i] = res
			}
			return results, nil
		}
		c.check = func(out any) ([]simStat, error) {
			t0 := time.Now()
			for _, res := range out.([]*partition.Result) {
				if got := digestOf(res); got != ref {
					return nil, fmt.Errorf("digest %+v, reference %+v", got, ref)
				}
			}
			checksums.observe(o.name, t0)
			return nil, nil
		}
		if traced {
			cfg := cpupart.Config{NumPartitions: o.opts.Partitions, Hash: o.opts.Hash, Threads: o.opts.Threads}
			c.traced = func(tr *tracer, parent int) error {
				err := tr.shadow(parent, "cpupart.Partition", func() error {
					for i := 0; i < o.calls; i++ {
						if _, err := cpupart.Partition(o.rel, cfg); err != nil {
							return err
						}
					}
					return nil
				})
				return err
			}
		}
		wl.classes = append(wl.classes, c)
	}
	wl.genS, wl.genTuples = gen.genS, gen.tuples
	wl.finish = func(run *runState) error {
		if !run.traced {
			return nil
		}
		l, tr := run.res.Layers, run.tr
		var perTuple []float64
		var tuples int64
		for _, c := range run.wl.classes {
			perTuple = append(perTuple, 1e9*tr.best(c.name, "cpupart.Partition").wallS/float64(c.tuples))
			tuples += c.tuples
		}
		all := tr.best("", "cpupart.Partition")
		l.set("cpupart.ns_per_tuple", geomean(perTuple))
		l.set("cpupart.alloc_bytes_per_tuple", all.allocBytes/float64(tuples))
		l.set("cpupart.mallocs_per_op", all.mallocs/float64(len(run.wl.classes)))
		t1 := tr.best("hash_t1", "cpupart.Partition").wallS
		l.set("cpupart.t2_speedup", t1/tr.best("hash_t2", "cpupart.Partition").wallS)
		l.set("cpupart.hash_over_radix", t1/tr.best("radix_t1", "cpupart.Partition").wallS)
		l.set("partition.cpu_self_cpu_ms", 1e3*(tr.best("", "partition.Partition").cpuS-all.cpuS))
		l.set("partition.checksum_ms", checksums.totalMS())
		return nil
	}
	return wl, nil
}
