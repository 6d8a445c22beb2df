package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/workload"
)

// perLayer lists the per-layer metrics of BENCHMARK.json in report order:
// Stats deltas over the traced run's timed phase normalised per trace op,
// latencies at the Target boundary, ladder rows and stand-alone probes.
// benchmarks/README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	// End-to-end by nature, but not steady enough from seed to seed (or, for
	// failed_frac, never anything but 0) to carry a bound.
	{name: "failed_frac", unit: "ratio", better: "lower"},
	{name: "query_p99_us", unit: "us", better: "lower"},
	{name: "access_mean_us", unit: "us", better: "lower"},
	{name: "erase_mean_us", unit: "us", better: "lower"},
	{name: "consent_mean_us", unit: "us", better: "lower"},

	{name: "ps.invocations_per_op", unit: "count", better: "lower"},
	{name: "ps.self_us", unit: "us", better: "lower"},
	{name: "admission.rejected_frac", unit: "ratio", better: "lower"},
	{name: "admission.admit_ns", unit: "ns", better: "lower"},
	{name: "admission.latency_p99_us", unit: "us", better: "lower"},

	{name: "ded.type2req_us", unit: "us", better: "lower"},
	{name: "ded.load_membrane_us", unit: "us", better: "lower"},
	{name: "ded.filter_us", unit: "us", better: "lower"},
	{name: "ded.load_data_us", unit: "us", better: "lower"},
	{name: "ded.execute_us", unit: "us", better: "lower"},
	{name: "ded.build_membrane_us", unit: "us", better: "lower"},
	{name: "ded.store_us", unit: "us", better: "lower"},
	{name: "ded.return_us", unit: "us", better: "lower"},
	{name: "ded.records_per_query", unit: "count", better: "lower"},
	{name: "ded.filtered_frac", unit: "ratio", better: "lower"},

	{name: "purpose.match_ns", unit: "ns", better: "lower"},
	{name: "membrane.encode_ns", unit: "ns", better: "lower"},
	{name: "membrane.decode_ns", unit: "ns", better: "lower"},
	{name: "membrane.decide_ns", unit: "ns", better: "lower"},
	{name: "membrane.encoded_bytes", unit: "B", better: "lower"},
	{name: "lsm.denials", unit: "count", better: "lower"},

	{name: "dbfs.mcache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "dbfs.mcache_evictions_per_op", unit: "count", better: "lower"},
	{name: "dbfs.membrane_reads_per_op", unit: "count", better: "lower"},
	{name: "dbfs.membrane_writes_per_op", unit: "count", better: "lower"},
	{name: "dbfs.data_reads_per_op", unit: "count", better: "lower"},
	{name: "dbfs.list_by_subject_us", unit: "us", better: "lower"},
	{name: "dbfs.get_membranes_us_per_rec", unit: "us", better: "lower"},
	{name: "dbfs.get_record_us", unit: "us", better: "lower"},
	{name: "dbfs.insert_p99_us", unit: "us", better: "lower"},
	{name: "dbfs.records_per_subject_p99", unit: "count", better: "lower"},

	{name: "cryptoshred.seal_ns", unit: "ns", better: "lower"},
	{name: "cryptoshred.open_ns", unit: "ns", better: "lower"},
	{name: "cryptoshred.shred_ns", unit: "ns", better: "lower"},

	{name: "inode.lookup_ns_16", unit: "ns", better: "lower"},
	{name: "inode.lookup_ns_1024", unit: "ns", better: "lower"},
	{name: "inode.add_child_ns_16", unit: "ns", better: "lower"},
	{name: "inode.add_child_ns_1024", unit: "ns", better: "lower"},
	{name: "inode.write_at_ns", unit: "ns", better: "lower"},
	{name: "inode.read_at_ns", unit: "ns", better: "lower"},
	{name: "inode.alloc_free_ns", unit: "ns", better: "lower"},
	{name: "inode.secure_free_ns", unit: "ns", better: "lower"},

	{name: "wal.txns_per_op", unit: "count", better: "lower"},
	{name: "wal.blocks_logged_per_op", unit: "count", better: "lower"},
	{name: "wal.txns_per_group", unit: "count", better: "higher"},
	{name: "wal.commit_ns", unit: "ns", better: "lower"},

	{name: "blockdev.reads_per_op", unit: "count", better: "lower"},
	{name: "blockdev.writes_per_op", unit: "count", better: "lower"},
	{name: "blockdev.syncs_per_op", unit: "count", better: "lower"},
	{name: "blockdev.npd_ops_per_op", unit: "count", better: "lower"},
	{name: "blockdev.bytes_written_per_user_byte", unit: "ratio", better: "lower"},
	{name: "blockdev.bcache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "blockdev.bcache_writebacks_per_op", unit: "count", better: "lower"},
	{name: "blockdev.read_ns", unit: "ns", better: "lower"},
	{name: "blockdev.writev8_ns", unit: "ns", better: "lower"},
	{name: "blockdev.cached_hit_ns", unit: "ns", better: "lower"},

	{name: "kernel.bus_msgs_per_op", unit: "count", better: "lower"},
	{name: "kernel.bus_sim_us_per_op", unit: "us", better: "lower"},

	{name: "rights.access_p50_us", unit: "us", better: "lower"},
	{name: "rights.access_p99_us", unit: "us", better: "lower"},
	{name: "rights.accessbatch_p50_us", unit: "us", better: "lower"},
	{name: "rights.accessbatch_us_per_subject", unit: "us", better: "lower"},
	{name: "rights.erase_p50_us", unit: "us", better: "lower"},
	{name: "rights.erase_p99_us", unit: "us", better: "lower"},
	{name: "rights.consent_p50_us", unit: "us", better: "lower"},
	{name: "rights.consent_p99_us", unit: "us", better: "lower"},
	{name: "rights.sweep_mean_us", unit: "us", better: "lower"},
	{name: "rights.self_us", unit: "us", better: "lower"},

	{name: "audit.entries_per_op", unit: "count", better: "lower"},
	{name: "audit.append_ns", unit: "ns", better: "lower"},
	{name: "audit.by_pds_ns", unit: "ns", better: "lower"},

	{name: "core.boot_ms", unit: "ms", better: "lower"},
	{name: "core.seed_insert_us", unit: "us", better: "lower"},
	{name: "typedsl.compile_us", unit: "us", better: "lower"},
	{name: "workload.generate_ms", unit: "ms", better: "lower"},

	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower"},
	{name: "runtime.heap_peak_mb", unit: "MB", better: "lower"},

	{name: "baseline.insert_us", unit: "us", better: "lower"},
	{name: "baseline.get_us", unit: "us", better: "lower"},
	{name: "baseline.erase_subject_us", unit: "us", better: "lower"},
	{name: "overhead.insert_x", unit: "x", better: "lower"},
	{name: "overhead.query_x", unit: "x", better: "lower"},
	{name: "overhead.erase_x", unit: "x", better: "lower"},

	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "trace.unattributed_frac", unit: "ratio", better: "lower"},
}

// tracedRun is everything a traced run gathered.
type tracedRun struct {
	ref      *phase // untraced, same trace: the base of trace.overhead_frac
	p        *phase // traced
	tr       *tracer
	ladder   *ladder
	probes   *probeSet
	generate time.Duration
	sc       workload.Scenario
	mix      workload.MacroMix
}

// attribution is one row of the per-class table: where the class's mean
// latency goes, as far as calls from outside can tell.
type attribution struct {
	kind         opKind
	n            int
	mean         float64 // ns
	children     float64 // measured below the entry point
	self         float64 // entry-point layer's own time
	unattributed float64 // below an entry point no public call splits
	base         string
}

// attribute builds the per-class table. Queries split into the eight DED
// stages (measured inside ps_invoke) and ps self time; Article-15 access
// splits by the ladder's share of separately measured children; every other
// class enters dbfs or rights through one call that cannot be split from
// outside, so its whole time is unattributed.
func (t *tracedRun) attribute() []attribution {
	var rows []attribution
	for k := opKind(0); k < nKinds; k++ {
		xs := t.p.tgt.samples[k]
		if len(xs) == 0 {
			continue
		}
		a := attribution{kind: k, n: len(xs), mean: mean(xs)}
		switch k {
		case kQuery:
			d := t.p.tgt.ded
			a.children = float64(d.stages.Total()) / float64(a.n)
			a.self = a.mean - a.children
			a.base = fmt.Sprintf("ded.Result.Timings of %d answered queries", d.queries)
		case kAccess:
			share := ratio(sum(t.ladder.children), sum(t.ladder.access))
			a.children = a.mean * share
			a.self = a.mean - a.children
			a.base = fmt.Sprintf("ladder: children are %.3f of Access over %d visits", share, len(t.ladder.access))
		default:
			a.unattributed = a.mean
			a.base = "single entry point"
		}
		rows = append(rows, a)
	}
	return rows
}

// layerMetrics computes every per-layer metric of a traced run.
func (t *tracedRun) layerMetrics() metricSet {
	m := metricSet{}
	p, l := t.p, t.ladder
	b, a := p.before, p.after
	ops := float64(p.issued)
	perOp := func(name, unit string, delta uint64) { m[name] = value{v: float64(delta) / ops, unit: unit} }
	lat := func(name string, xs []int64, q float64) {
		m[name] = value{v: us(quantile(xs, q)), unit: "us", n: len(xs)}
	}
	avg := func(name string, xs []int64) { m[name] = value{v: us(mean(xs)), unit: "us", n: len(xs)} }
	s := &p.tgt.samples

	m["failed_frac"] = value{v: float64(p.failed) / ops, unit: "ratio", n: p.issued}
	lat("query_p99_us", s[kQuery], 0.99)
	avg("access_mean_us", s[kAccess])
	avg("erase_mean_us", s[kErase])
	avg("consent_mean_us", s[kConsent])

	// ps / admission
	perOp("ps.invocations_per_op", "count", a.ps.Invocations-b.ps.Invocations)
	d := p.tgt.ded
	nq := float64(d.queries)
	m["ps.self_us"] = value{v: us(ratio(float64(d.opTime-d.stages.Total()), nq)), unit: "us", n: d.queries}
	rejected := float64(a.ps.Admission.Rejected() - b.ps.Admission.Rejected())
	admitted := float64(a.ps.Admission.Admitted - b.ps.Admission.Admitted)
	m["admission.rejected_frac"] = value{v: ratio(rejected, rejected+admitted), unit: "ratio", n: int(rejected + admitted)}
	hist := a.ps.Admission.LatencyHist.Delta(b.ps.Admission.LatencyHist)
	m["admission.latency_p99_us"] = value{v: us(float64(hist.Quantile(0.99))), unit: "us", n: int(hist.Total())}

	// ded
	for i, st := range stageDurations(d.stages) {
		m["ded."+stageNames[i]+"_us"] = value{v: us(ratio(float64(st), nq)), unit: "us", n: d.queries}
	}
	m["ded.records_per_query"] = value{v: ratio(float64(d.records), nq), unit: "count", n: d.queries}
	m["ded.filtered_frac"] = value{v: ratio(float64(d.filtered), float64(d.records)), unit: "ratio", n: d.records}

	// lsm, dbfs
	m["lsm.denials"] = value{v: float64(a.core.Denials - b.core.Denials), unit: "count"}
	db0, db1 := b.core.DBFS, a.core.DBFS
	hits, misses := float64(db1.CacheHits-db0.CacheHits), float64(db1.CacheMisses-db0.CacheMisses)
	m["dbfs.mcache_hit_ratio"] = value{v: ratio(hits, hits+misses), unit: "ratio", n: int(hits + misses)}
	perOp("dbfs.mcache_evictions_per_op", "count", db1.CacheEvictions-db0.CacheEvictions)
	perOp("dbfs.membrane_reads_per_op", "count", db1.MembraneReads-db0.MembraneReads)
	perOp("dbfs.membrane_writes_per_op", "count", db1.MembraneWrites-db0.MembraneWrites)
	perOp("dbfs.data_reads_per_op", "count", db1.DataReads-db0.DataReads)
	avg("dbfs.list_by_subject_us", l.list)
	m["dbfs.get_membranes_us_per_rec"] = value{v: us(ratio(sum(l.getMembranes), sum(l.records))), unit: "us", n: int(sum(l.records))}
	avg("dbfs.get_record_us", l.getRecord)
	lat("dbfs.insert_p99_us", s[kInsert], 0.99)
	m["dbfs.records_per_subject_p99"] = value{v: quantile(l.records, 0.99), unit: "count", n: len(l.records)}

	// wal
	txns := a.wal.TxnsCommitted - b.wal.TxnsCommitted
	perOp("wal.txns_per_op", "count", txns)
	perOp("wal.blocks_logged_per_op", "count", a.wal.BlocksLogged-b.wal.BlocksLogged)
	m["wal.txns_per_group"] = value{v: ratio(float64(txns), float64(a.wal.GroupCommits-b.wal.GroupCommits)), unit: "count", n: int(txns)}

	// blockdev, kernel
	pd0, pd1 := b.core.PDDisk, a.core.PDDisk
	perOp("blockdev.reads_per_op", "count", pd1.Reads-pd0.Reads)
	perOp("blockdev.writes_per_op", "count", pd1.Writes-pd0.Writes)
	perOp("blockdev.syncs_per_op", "count", pd1.Syncs-pd0.Syncs)
	perOp("blockdev.npd_ops_per_op", "count",
		(a.core.NPDDisk.Reads+a.core.NPDDisk.Writes)-(b.core.NPDDisk.Reads+b.core.NPDDisk.Writes))
	userBytes := float64((len(s[kInsert])+len(s[kUpdate]))*recordBytes(t.sc.Record("s000001", "sx-size", 0)) +
		len(s[kSession])*recordBytes(workload.SessionRecord(0)))
	m["blockdev.bytes_written_per_user_byte"] = value{v: ratio(float64(pd1.BytesWritten-pd0.BytesWritten), userBytes), unit: "ratio", n: int(userBytes)}
	bhits, bmisses := float64(db1.BlockCacheHits-db0.BlockCacheHits), float64(db1.BlockCacheMisses-db0.BlockCacheMisses)
	m["blockdev.bcache_hit_ratio"] = value{v: ratio(bhits, bhits+bmisses), unit: "ratio", n: int(bhits + bmisses)}
	perOp("blockdev.bcache_writebacks_per_op", "count", db1.BlockWritebacks-db0.BlockWritebacks)
	perOp("kernel.bus_msgs_per_op", "count", a.core.Bus.Messages-b.core.Bus.Messages)
	m["kernel.bus_sim_us_per_op"] = value{v: us(float64(a.core.Bus.SimLatency-b.core.Bus.SimLatency)) / ops, unit: "us"}

	// rights
	lat("rights.access_p50_us", s[kAccess], 0.50)
	lat("rights.access_p99_us", s[kAccess], 0.99)
	lat("rights.accessbatch_p50_us", s[kAccessBatch], 0.50)
	m["rights.accessbatch_us_per_subject"] = value{v: us(mean(s[kAccessBatch])) / float64(t.mix.BatchSize), unit: "us", n: len(s[kAccessBatch])}
	lat("rights.erase_p50_us", s[kErase], 0.50)
	lat("rights.erase_p99_us", s[kErase], 0.99)
	lat("rights.consent_p50_us", s[kConsent], 0.50)
	lat("rights.consent_p99_us", s[kConsent], 0.99)
	avg("rights.sweep_mean_us", s[kSweep])
	m["rights.self_us"] = value{v: us(mean(l.access) - mean(l.children)), unit: "us", n: len(l.access)}

	// audit
	perOp("audit.entries_per_op", "count", uint64(a.core.Audit-b.core.Audit))
	m["audit.by_pds_ns"] = value{v: mean(l.byPDs), unit: "ns", n: len(l.byPDs)}

	// set-up pieces
	m["core.boot_ms"] = value{v: float64(p.setup.boot) / 1e6, unit: "ms"}
	m["core.seed_insert_us"] = value{v: us(float64(p.setup.prepare)) / float64(t.mix.Subjects), unit: "us", n: t.mix.Subjects}
	m["typedsl.compile_us"] = value{v: us(float64(t.probes.compile)), unit: "us"}
	m["workload.generate_ms"] = value{v: float64(t.generate) / 1e6, unit: "ms"}

	// runtime
	m["runtime.gc_cycles"] = value{v: float64(a.mem.NumGC - b.mem.NumGC), unit: "count"}
	m["runtime.gc_cpu_frac"] = value{v: ratio(a.gc[0]-b.gc[0], a.gc[1]-b.gc[1]), unit: "ratio"}
	m["runtime.heap_peak_mb"] = value{v: float64(max(a.mem.HeapInuse, b.mem.HeapInuse)) / 1e6, unit: "MB"}

	// baseline: medians over the ladder's distinct subjects
	m["baseline.insert_us"] = value{v: us(quantile(l.baseInsert, 0.5)), unit: "us", n: len(l.baseInsert)}
	m["baseline.get_us"] = value{v: us(quantile(l.baseGet, 0.5)), unit: "us", n: len(l.baseGet)}
	m["baseline.erase_subject_us"] = value{v: us(quantile(l.baseErase, 0.5)), unit: "us", n: len(l.baseErase)}
	m["overhead.insert_x"] = value{v: ratio(quantile(l.insert, 0.5), quantile(l.baseInsert, 0.5)), unit: "x", n: len(l.insert)}
	m["overhead.query_x"] = value{v: ratio(quantile(l.invoke, 0.5), quantile(l.baseGet, 0.5)), unit: "x", n: len(l.invoke)}
	m["overhead.erase_x"] = value{v: ratio(quantile(l.erase, 0.5), quantile(l.baseErase, 0.5)), unit: "x", n: len(l.erase)}

	// probes
	for name, r := range t.probes.results {
		m[name] = value{v: r.ns, unit: "ns"}
	}
	m["membrane.encoded_bytes"] = value{v: float64(t.probes.encodedBytes), unit: "B"}

	// trace
	untraced := float64(t.ref.answered) / t.ref.wall.Seconds()
	traced := float64(p.answered) / p.wall.Seconds()
	m["trace.overhead_frac"] = value{v: 1 - traced/untraced, unit: "ratio"}
	var total, unattributed float64
	for _, row := range t.attribute() {
		total += float64(row.n) * row.mean
		unattributed += float64(row.n) * row.unattributed
	}
	m["trace.unattributed_frac"] = value{v: ratio(unattributed, total), unit: "ratio"}
	return m
}

// printAttribution writes the traced run's per-class table: end-to-end mean
// and where it goes, then the DED stages, the ladder and the probes it rests
// on. Every ratio names its base.
func (t *tracedRun) printAttribution(w io.Writer, m metricSet) {
	fmt.Fprintf(w, "\nper-class attribution, traced run (us per op; 'unattributed' is time below an entry point that no public call splits)\n")
	fmt.Fprintf(w, "  %-12s %7s %10s %10s %10s %12s %10s %8s %8s  %s\n",
		"class", "n", "mean", "children", "self", "unattributed", "dev-sim", "dev-ops", "wal-txn", "base")
	for _, row := range t.attribute() {
		devSim, devOps, walTxns := "-", "-", "-"
		if t.tr.counts {
			c, n := t.tr.perKind[row.kind], float64(row.n)
			devSim = fmt.Sprintf("%.1f", us(float64(c[cDevSimNs]))/n)
			devOps = fmt.Sprintf("%.1f", float64(c[cDevReads]+c[cDevWrites])/n)
			walTxns = fmt.Sprintf("%.2f", float64(c[cWALTxns])/n)
		}
		fmt.Fprintf(w, "  %-12s %7d %10.1f %10.1f %10.1f %12.1f %10s %8s %8s  %s\n",
			kindNames[row.kind], row.n, us(row.mean), us(row.children), us(row.self), us(row.unattributed),
			devSim, devOps, walTxns, row.base)
	}
	fmt.Fprintf(w, "  dev-sim is the modelled NVMe time of the op's PD device calls; the in-memory device does not sleep it, so it is beside the wall-clock mean, not inside it\n")
	fmt.Fprintf(w, "  trace.unattributed_frac %.4f of the summed op time; trace.overhead_frac %.4f of untraced ops_per_s (%.1f/s)\n",
		m["trace.unattributed_frac"].v, m["trace.overhead_frac"].v, float64(t.ref.answered)/t.ref.wall.Seconds())

	d := t.p.tgt.ded
	fmt.Fprintf(w, "\nquery = ps.self + DED stages (mean us over %d answered queries)\n  ps.self %.1f", d.queries, m["ps.self_us"].v)
	for _, name := range stageNames {
		fmt.Fprintf(w, " | %s %.1f", name, m["ded."+name+"_us"].v)
	}
	l := t.ladder
	fmt.Fprintf(w, "\n\nladder on the end-of-run machine (%d visits drawn with skew %.1f, %d distinct subjects; mean us)\n",
		len(l.access), t.mix.Skew, len(l.erase))
	fmt.Fprintf(w, "  rights.Access %.1f = rights.self %.1f + dbfs.ListBySubject %.1f + dbfs.GetMembranes %.1f + dbfs.GetRecord %.1f x %.1f records + audit.ByPDs %.1f\n",
		us(mean(l.access)), m["rights.self_us"].v, us(mean(l.list)), us(mean(l.getMembranes)),
		us(mean(l.getRecord)), ratio(float64(len(l.getRecord)), float64(len(l.access))), us(mean(l.byPDs)))
	fmt.Fprintf(w, "  ps.Invoke %.1f | dbfs.Insert %.1f | rights.Erase %.1f\n", us(mean(l.invoke)), us(mean(l.insert)), us(mean(l.erase)))
	fmt.Fprintf(w, "  overhead over internal/baseline, p50 on the same distinct subjects: insert %.2fx (base %.1f us) | query %.2fx (base %.1f us) | erase %.2fx (base %.1f us)\n",
		m["overhead.insert_x"].v, m["baseline.insert_us"].v, m["overhead.query_x"].v, m["baseline.get_us"].v,
		m["overhead.erase_x"].v, m["baseline.erase_subject_us"].v)

	fmt.Fprintf(w, "\nstand-alone probes (median ns per call, allocs per call)\n")
	for _, def := range perLayer {
		if r, ok := t.probes.results[def.name]; ok {
			fmt.Fprintf(w, "  %-28s %12.1f ns %8.2f allocs\n", def.name, r.ns, r.allocs)
		}
	}
}
