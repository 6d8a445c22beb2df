package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/workload"
)

// seededSubjects is every workload's population. One hrecord/account/profile
// per subject is ~6 blocks of inode metadata and data, so 2000 subjects is
// several times the 512-block inode buffer cache: no working set fits it.
const seededSubjects = 2000

// workloadDef is one benchmark workload: a scenario from the workload
// library (types, purposes, record shape) driven by a benchmark-owned mix.
type workloadDef struct {
	name string
	// why is the one-line reason BENCHMARK.json records.
	why string
	// scenario names the workload-library scenario supplying types and
	// query purposes.
	scenario string
	// simPerSec is how many simulated seconds of trace stand for one
	// requested wall second. The trace is a pure function of (-seconds,
	// -seed), so two commits measured with the same arguments do the same
	// work; the factor was sized on the 2-core reference sandbox so the
	// timed phase lasts about -seconds there.
	simPerSec float64
	// parallel selects workload.Soak with min(nproc,4) closed-loop clients;
	// otherwise one client drives workload.RunScenario paced on simclock.
	parallel bool
	mix      func(d time.Duration) workload.MacroMix
}

func burst(perSec float64, every, length time.Duration, factor float64) workload.Rate {
	return workload.Rate{PerSec: perSec, BurstEvery: every, BurstLen: length, BurstFactor: factor}
}

func flat(perSec float64) workload.Rate { return workload.Rate{PerSec: perSec} }

var workloads = []workloadDef{
	{
		name:      "clinic-mixed",
		why:       "Query-dominated, Zipf-hot subjects whose trees grow large, one never-consented purpose: ps->ded->dbfs read path with the membrane cache overflowed per shard; writes are a small share.",
		scenario:  "health-records",
		simPerSec: 5.4,
		mix: func(d time.Duration) workload.MacroMix {
			return workload.MacroMix{
				Name: "clinic-mixed", Duration: d, Subjects: seededSubjects, Skew: 1.2,
				Rates: map[workload.OpClass]workload.Rate{
					workload.ClassInsert:      burst(20, 10*time.Second, 2*time.Second, 5),
					workload.ClassUpdate:      flat(10),
					workload.ClassDEDQuery:    flat(50),
					workload.ClassAccess:      flat(3),
					workload.ClassAccessBatch: flat(2),
					workload.ClassErase:       flat(2),
					workload.ClassConsent:     flat(3),
					workload.ClassRetention:   flat(4),
				},
				BatchSize:       10,
				QueryPurposes:   []string{"care", "marketing", "research"},
				ConsentPurposes: []string{"research", "marketing"},
				WithdrawProb:    0.5,
			}
		},
	},
	{
		name:      "audit-sweep",
		why:       "Read-side rights work: AccessBatch fan-out, GetMembranes, audit lookups and admission shedding with a membrane cache that fits; almost no writes, so a write-path change must not move it.",
		scenario:  "regulator-audit",
		simPerSec: 19,
		mix: func(d time.Duration) workload.MacroMix {
			return workload.MacroMix{
				Name: "audit-sweep", Duration: d, Subjects: seededSubjects, Skew: 1.1,
				Rates: map[workload.OpClass]workload.Rate{
					workload.ClassInsert:      flat(3),
					workload.ClassUpdate:      flat(3),
					workload.ClassDEDQuery:    burst(40, 15*time.Second, 3*time.Second, 4),
					workload.ClassAccess:      flat(6),
					workload.ClassAccessBatch: flat(3),
					workload.ClassErase:       flat(1),
					workload.ClassConsent:     flat(1),
					workload.ClassRetention:   flat(1),
				},
				BatchSize:       100,
				QueryPurposes:   []string{"service", "service", "analytics"},
				ConsentPurposes: []string{"analytics"},
				WithdrawProb:    0.3,
				// ~107 service queries/s in bursts against a 50/s refill:
				// the token bucket sheds the bursts, the rights path is
				// never throttled.
				Limits: []workload.LimitSpec{{Purpose: "service", RatePerSec: 50, Burst: 60}},
			}
		},
	},
	{
		name:      "breach-wave",
		why:       "The same dbfs/inode/blockdev layers used for writes: consent-withdrawal and erasure waves (MutateMembrane, crypto-shred, secure free, WAL commits); a read-path gain that costs writes shows here.",
		scenario:  "breach-response",
		simPerSec: 13,
		mix: func(d time.Duration) workload.MacroMix {
			return workload.MacroMix{
				Name: "breach-wave", Duration: d, Subjects: seededSubjects, Skew: 1.1,
				Rates: map[workload.OpClass]workload.Rate{
					workload.ClassInsert:      flat(10),
					workload.ClassUpdate:      flat(5),
					workload.ClassDEDQuery:    flat(20),
					workload.ClassAccess:      flat(2),
					workload.ClassAccessBatch: flat(1),
					workload.ClassConsent:     burst(4, 30*time.Second, 5*time.Second, 20),
					workload.ClassErase:       burst(2, 30*time.Second, 5*time.Second, 10),
					workload.ClassRetention:   flat(5),
				},
				BatchSize:       10,
				QueryPurposes:   []string{"service", "sharing"},
				ConsentPurposes: []string{"sharing", "research"},
				WithdrawProb:    0.9,
			}
		},
	},
	{
		name:      "ingest-parallel",
		why:       "The only concurrent workload: uniform subjects, min(nproc,4) clients inserting, updating and querying contend on dbfs shard locks, inode actors and WAL group commit; no hot subject, no big tree.",
		scenario:  "breach-response",
		simPerSec: 16.5,
		parallel:  true,
		mix: func(d time.Duration) workload.MacroMix {
			return workload.MacroMix{
				Name: "ingest-parallel", Duration: d, Subjects: seededSubjects,
				Rates: map[workload.OpClass]workload.Rate{
					workload.ClassInsert:   flat(60),
					workload.ClassUpdate:   flat(30),
					workload.ClassDEDQuery: flat(30),
					// A trickle of bulk Article-15 requests: the benchmark
					// contract makes every workload report every end-to-end
					// metric, accessbatch_mean_us among them.
					workload.ClassAccessBatch: flat(2),
				},
				BatchSize:     10,
				QueryPurposes: []string{"service", "sharing"},
			}
		},
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// clients is the closed-loop client count of a workload.
func (w workloadDef) clients() int {
	if !w.parallel {
		return 1
	}
	return min(runtime.NumCPU(), 4)
}
