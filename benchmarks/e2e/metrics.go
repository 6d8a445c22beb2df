package main

// metricDef declares one metric of BENCHMARK.json. bound is the share of
// the parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is what a user of the machine sees, and only what all four
// workloads issue and what holds steady from seed to seed: a metric whose
// spread over ten seeds exceeded a third of the contract's largest bound on
// some workload is reported per layer instead (benchmarks/README.md lists
// them with the spreads seen). Bounds are three times the widest spread seen
// on any workload, never above the contract's 0.25.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"insert_p50_us", "us", "lower", 0.25},
	{"insert_p90_us", "us", "lower", 0.25},
	{"update_p50_us", "us", "lower", 0.25},
	{"accessbatch_mean_us", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.25},
	{"alloc_bytes_per_op", "B", "lower", 0.25},
	{"dev_ops_per_op", "count", "lower", 0.25},
	{"dev_sim_us_per_op", "us", "lower", 0.25},
}

// value is one reported number; n is the sample count behind a percentile
// or mean (0 for ratios of counters).
type value struct {
	v        float64
	unit     string
	n        int
	min, max float64 // over an untraced run's repeats
}

// minSamples is the sample count below which a percentile or mean is
// flagged in the report; the default run length gives every class more.
const minSamples = 100

type metricSet map[string]value

func us(ns float64) float64 { return ns / 1e3 }

// endToEndMetrics computes the end-to-end rows of one untraced phase.
func endToEndMetrics(p *phase) metricSet {
	m := metricSet{}
	ops := float64(p.issued)
	m["setup_s"] = value{v: p.setup.total().Seconds(), unit: "s"}
	m["ops_per_s"] = value{v: float64(p.answered) / p.wall.Seconds(), unit: "1/s", n: p.answered}

	pct := func(name string, k opKind, q float64) {
		m[name] = value{v: us(quantile(p.tgt.samples[k], q)), unit: "us", n: len(p.tgt.samples[k])}
	}
	pct("query_p50_us", kQuery, 0.50)
	pct("insert_p50_us", kInsert, 0.50)
	pct("insert_p90_us", kInsert, 0.90)
	pct("update_p50_us", kUpdate, 0.50)
	m["accessbatch_mean_us"] = value{v: us(mean(p.tgt.samples[kAccessBatch])), unit: "us", n: len(p.tgt.samples[kAccessBatch])}

	b, a := p.before, p.after
	m["allocs_per_op"] = value{v: float64(a.mem.Mallocs-b.mem.Mallocs) / ops, unit: "count"}
	m["alloc_bytes_per_op"] = value{v: float64(a.mem.TotalAlloc-b.mem.TotalAlloc) / ops, unit: "B"}
	devOps := (a.core.PDDisk.Reads + a.core.PDDisk.Writes + a.core.NPDDisk.Reads + a.core.NPDDisk.Writes) -
		(b.core.PDDisk.Reads + b.core.PDDisk.Writes + b.core.NPDDisk.Reads + b.core.NPDDisk.Writes)
	m["dev_ops_per_op"] = value{v: float64(devOps) / ops, unit: "count"}
	m["dev_sim_us_per_op"] = value{v: us(float64(a.core.PDDisk.SimLatency-b.core.PDDisk.SimLatency)) / ops, unit: "us"}
	return m
}
