package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/ps"
	"repro/internal/wal"
	"repro/internal/workload"
)

// runOpts is one benchmark run. The defaults come from the command line;
// the smoke test shrinks subjects and simDur.
type runOpts struct {
	def      workloadDef
	seed     uint64
	simDur   time.Duration // simulated length of the trace
	subjects int
	repeats  int    // machines per untraced run; metrics are medians over them
	outDir   string // where the traced run writes <workload>.trace.jsonl
	// probeDivide divides the stand-alone probes' iteration counts; the smoke
	// test runs a hundredth of them.
	probeDivide int
	// failQuery injects one machine error (see timedTarget.failQuery).
	failQuery int
}

// counters is everything the run diffs across the timed phase.
type counters struct {
	core core.Stats
	wal  wal.Stats
	ps   ps.Stats
	mem  runtime.MemStats
	gc   [2]float64 // GC and total CPU seconds
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeCounters(sys *core.System) counters {
	c := counters{core: sys.Stats(), wal: sys.DBFS().JournalStats(), ps: sys.PS().Stats()}
	metrics.Read(gcSamples)
	c.gc = [2]float64{gcSamples[0].Value.Float64(), gcSamples[1].Value.Float64()}
	runtime.ReadMemStats(&c.mem)
	return c
}

// setupTimes splits set-up into its two parts.
type setupTimes struct {
	boot    time.Duration // core.Boot
	prepare time.Duration // DeclareTypesDSL .. last seeding Insert
}

func (s setupTimes) total() time.Duration { return s.boot + s.prepare }

// phase is the outcome of one booted machine driven through one trace.
type phase struct {
	sys      *core.System
	tgt      *timedTarget
	setup    setupTimes
	wall     time.Duration // timed phase
	issued   int           // trace ops
	failed   int           // ops classified Failed
	answered int           // ok + denied + rejected
	before   counters
	after    counters
}

// boot starts a default-options machine: only the disk and inode sizing and
// the 1024-bit escrow key are set, no tuning knob is touched.
func boot(mix workload.MacroMix, ops []workload.Op) (*core.System, time.Duration, error) {
	blocks, npdBlocks, inodes := workload.BootSizing(mix, ops)
	t0 := time.Now()
	sys, err := core.Boot(core.Options{
		AuthorityBits: 1024,
		PDDiskBlocks:  blocks,
		NPDDiskBlocks: npdBlocks,
		NInodes:       inodes,
	})
	return sys, time.Since(t0), err
}

// scenarioFor returns the library scenario with the benchmark's mix in both
// scale slots.
func scenarioFor(o runOpts) (workload.Scenario, workload.MacroMix, error) {
	sc, ok := workload.LookupScenario(o.def.scenario)
	if !ok {
		return sc, workload.MacroMix{}, fmt.Errorf("no scenario %q", o.def.scenario)
	}
	mix := o.def.mix(o.simDur)
	mix.Subjects = o.subjects
	sc.Mix, sc.SmallMix = mix, mix
	return sc, mix, nil
}

// runPhase boots a machine and drives the whole trace through it.
func runPhase(o runOpts, sc workload.Scenario, mix workload.MacroMix, ops []workload.Op, tr *tracer) (*phase, error) {
	sys, bootTime, err := boot(mix, ops)
	if err != nil {
		return nil, err
	}
	p := &phase{sys: sys, issued: len(ops)}
	tgt := newTimedTarget(sys, sc.TypeName, mix.Subjects)
	tgt.failQuery = o.failQuery
	tgt.tr = tr
	tgt.onSeeded = func() {
		runtime.GC() // start every timed phase from a collected heap
		p.before = takeCounters(sys)
		if tr != nil {
			tr.start(sys)
		}
	}
	p.tgt = tgt
	if o.def.parallel {
		ok, rejected, denied, failed, err := workload.Soak(tgt, sc, mix, ops, o.def.clients())
		if err != nil {
			return nil, err
		}
		p.after = takeCounters(sys)
		p.failed, p.answered = failed, ok+rejected+denied
	} else {
		// RunScenario ends with the invariant scan, which must stay out of
		// the counters: it calls GetRecord/ResidueScan, never an op method,
		// so the snapshot is taken on the first of those calls.
		tgt.onScan = func() { p.after = takeCounters(sys) }
		card, err := workload.RunScenario(tgt, sc, workload.RunConfig{Seed: o.seed, Pace: true})
		if err != nil {
			return nil, err
		}
		tgt.scanned() // no erasure, no scan: snapshot now
		for _, row := range card.Classes {
			p.failed += int(row.Failed)
		}
		p.answered = card.Ops - p.failed
		if !card.Clean() {
			inv := card.Invariants
			return nil, fmt.Errorf("invariant violation: residue=%d erased-readable=%d consent-mismatch=%d access-checked=%d",
				inv.ResidueHits, inv.ErasedReadable, inv.ConsentMismatches, inv.AccessChecked)
		}
	}
	if p.failed > 0 {
		return nil, fmt.Errorf("%d of %d ops failed", p.failed, p.issued)
	}
	p.setup = setupTimes{boot: bootTime, prepare: tgt.seededAt.Sub(tgt.declareAt)}
	p.wall = tgt.lastEnd.Sub(tgt.seededAt)
	return p, nil
}

// quantile returns the q-quantile of xs by nearest rank, 0 when empty.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	i := int(q*float64(len(sorted))+0.5) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

func sum(xs []int64) float64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return float64(s)
}

// ratio is num/den, 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(xs []int64) float64 { return ratio(sum(xs), float64(len(xs))) }
