package core

// The self-tuning control plane (Options.Control): one feedback controller
// per runtime knob, each observing counters the system already exports and
// steering its knob exclusively through ApplyTuning — the controllers are
// just another client of the unified tuning API, so Tuning() always shows
// what they did and rgpdctl can override them between ticks.
//
//   commit-window    AIMD        group-commit occupancy (txns per group)
//   admission-queue  AIMD        admitted-latency p99 vs Options.ControlSLO
//   sweep-interval   hill-climb  expiries reclaimed per sweep pass
//   membrane-cache   hill-climb  membrane-cache hit rate
//   repack-interval  hill-climb  cold-tier demotions per repack pass
//
// Every signal is a windowed delta — counters since the previous tick, not
// since boot — so the controllers react to current behaviour, and every
// Read returns the controller's own target when the window saw no traffic
// (a neutral reading holds the knob instead of steering on silence).

import (
	"math"
	"sync"
	"time"

	"repro/internal/control"
	"repro/internal/latencyhist"
)

// Control-plane setpoints. Targets are behavioural, not load-dependent:
// occupancy per group, latency relative to the SLO, expiries per pass, hit
// rate — all reachable across the load range SC6 sweeps.
const (
	// ctlGroupOccupancy is the commit-window target batching factor: enough
	// coalescing to amortize the journal flush, low enough that the window
	// is not padding latency when traffic is thin.
	ctlGroupOccupancy = 4.0
	// ctlCommitWindowMaxMs bounds the commit window (in ms).
	ctlCommitWindowMaxMs = 20.0
	// ctlExpiriesPerPass is the sweep-interval target reclaim density.
	ctlExpiriesPerPass = 8.0
	// ctlDemotionsPerPass is the repack-interval target demotion density:
	// pass often enough that the hot tier sheds cold records promptly, but
	// not so often that passes scan shards to demote nothing.
	ctlDemotionsPerPass = 8.0
	// ctlCacheHitRate is the membrane-cache target hit rate.
	ctlCacheHitRate = 0.9
	// ctlCacheMin / ctlCacheMax / ctlCacheStep bound the cache capacity
	// knob (entries).
	ctlCacheMin  = 64.0
	ctlCacheMax  = 65536.0
	ctlCacheStep = 256.0
	// ctlAdmissionDefault seeds the admission bound when the machine
	// booted unbounded: the controller cannot steer "unbounded", so
	// enabling the control plane installs a finite starting bound.
	ctlAdmissionDefault = 64
)

func clampf(v, lo, hi float64) float64 {
	return math.Min(math.Max(v, lo), hi)
}

// windowedRatio builds a controller Read over two monotonic counters: the
// growth of num over the growth of den since the previous reading, or
// neutral when den did not move. The window opens at the counters' current
// values, so the first tick observes post-boot traffic only.
func windowedRatio(neutral float64, counters func() (num, den uint64)) func() float64 {
	var mu sync.Mutex
	prevNum, prevDen := counters()
	return func() float64 {
		num, den := counters()
		mu.Lock()
		defer mu.Unlock()
		dn, dd := num-prevNum, den-prevDen
		prevNum, prevDen = num, den
		if dd == 0 {
			return neutral
		}
		return float64(dn) / float64(dd)
	}
}

// buildControlGroup wires the five controllers. Called once from Boot;
// controllers whose subsystem is ablated away (membrane cache disabled,
// cold-tier demotion off) are skipped rather than fighting the ablation.
func (s *System) buildControlGroup() (*control.Group, error) {
	var cs []*control.Controller

	// Commit window: knob in milliseconds, signal = windowed txns/groups
	// summed over every journal. AIMD — a too-long window pads every
	// commit's latency, so retreat is multiplicative.
	{
		initial := clampf(float64(s.opts.CommitWindow)/float64(time.Millisecond), 0, ctlCommitWindowMaxMs)
		c, err := control.New(control.Config{
			Name:    "commit-window",
			Mode:    control.AIMD,
			Target:  ctlGroupOccupancy,
			Band:    0.25,
			Min:     0,
			Max:     ctlCommitWindowMaxMs,
			Initial: initial,
			Step:    0.25,
			Read: windowedRatio(ctlGroupOccupancy, func() (txns, groups uint64) {
				for _, fs := range s.pdFSs {
					st := fs.JournalStats()
					txns += st.TxnsCommitted
					groups += st.GroupCommits
				}
				return txns, groups
			}),
			Apply: func(v float64) error {
				w := time.Duration(v * float64(time.Millisecond))
				return s.ApplyTuning(Tuning{CommitWindow: &w})
			},
		})
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}

	// Admission bound: knob = MaxPending, signal = windowed p99 of
	// admitted latency over the SLO (target ratio 1.0). AIMD — queue depth
	// past the SLO is the overload SC4 protects against, so back off hard.
	if adm := s.ps.Admission(); adm != nil {
		initial := s.opts.AdmissionQueue
		if initial <= 0 {
			initial = ctlAdmissionDefault
			n := initial
			if err := s.ApplyTuning(Tuning{AdmissionMaxPending: &n}); err != nil {
				return nil, err
			}
		}
		var mu sync.Mutex
		var prev latencyhist.Hist
		slo := float64(s.opts.ControlSLO)
		c, err := control.New(control.Config{
			Name:    "admission-queue",
			Mode:    control.AIMD,
			Target:  1.0,
			Band:    0.2,
			Min:     1,
			Max:     math.Max(4096, float64(initial)),
			Initial: float64(initial),
			Step:    4,
			Read: func() float64 {
				st := adm.Snapshot()
				mu.Lock()
				defer mu.Unlock()
				win := st.LatencyHist.Delta(prev)
				prev = st.LatencyHist
				if win.Total() == 0 {
					return 1.0
				}
				return float64(win.Quantile(0.99)) / slo
			},
			Apply: func(v float64) error {
				n := int(math.Round(v))
				return s.ApplyTuning(Tuning{AdmissionMaxPending: &n})
			},
		})
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}

	// Sweep interval: knob in seconds, signal = windowed expiries deleted
	// per pass. Hill-climb — both directions cost the same (CPU spent
	// scanning vs retention slack consumed), approach the density target
	// in fixed steps.
	{
		const minS, maxS = 1.0, 900.0
		c, err := control.New(control.Config{
			Name:    "sweep-interval",
			Mode:    control.HillClimb,
			Target:  ctlExpiriesPerPass,
			Band:    0.5,
			Min:     minS,
			Max:     maxS,
			Initial: clampf(s.opts.SweepInterval.Seconds(), minS, maxS),
			Step:    5,
			Read: windowedRatio(ctlExpiriesPerPass, func() (deleted, passes uint64) {
				st := s.rights.Sweeper().Stats()
				return st.Deleted, st.Passes
			}),
			Apply: func(v float64) error {
				d := time.Duration(v * float64(time.Second))
				return s.ApplyTuning(Tuning{SweepInterval: &d})
			},
		})
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}

	// Membrane cache: knob = capacity in entries, signal = windowed hit
	// rate. Hill-climb toward the target rate: grow while starved, shrink
	// (reclaim memory) while comfortably above it. Skipped when the boot
	// ablated the cache away — the controller must not undo an ablation.
	if cap0 := s.store.MembraneCacheCap(); cap0 >= 0 {
		c, err := control.New(control.Config{
			Name:    "membrane-cache",
			Mode:    control.HillClimb,
			Target:  ctlCacheHitRate,
			Band:    0.05,
			Min:     ctlCacheMin,
			Max:     ctlCacheMax,
			Initial: clampf(float64(cap0), ctlCacheMin, ctlCacheMax),
			Step:    ctlCacheStep,
			Read: windowedRatio(ctlCacheHitRate, func() (hits, lookups uint64) {
				st := s.store.Stats()
				return st.CacheHits, st.CacheHits + st.CacheMisses
			}),
			Apply: func(v float64) error {
				n := int(math.Round(v))
				return s.ApplyTuning(Tuning{MembraneCache: &n})
			},
		})
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}

	// Repack interval: knob in seconds, signal = windowed cold-tier
	// demotions per pass. Hill-climb toward a target demotion density,
	// the sweeper's law: pass too often and shard scans demote nothing,
	// too rarely and the hot tier carries cold records. Skipped when
	// demotion is disabled (ColdAfter 0) — the controller must not undo
	// the ablation.
	if s.store.ColdAfter() > 0 {
		const minS, maxS = 1.0, 900.0
		c, err := control.New(control.Config{
			Name:    "repack-interval",
			Mode:    control.HillClimb,
			Target:  ctlDemotionsPerPass,
			Band:    0.5,
			Min:     minS,
			Max:     maxS,
			Initial: clampf(s.opts.ColdInterval.Seconds(), minS, maxS),
			Step:    5,
			Read: windowedRatio(ctlDemotionsPerPass, func() (demoted, passes uint64) {
				st := s.repacker.Stats()
				return st.Demoted, st.Passes
			}),
			Apply: func(v float64) error {
				d := time.Duration(v * float64(time.Second))
				return s.ApplyTuning(Tuning{RepackInterval: &d})
			},
		})
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}

	return control.NewGroup(s.opts.Clock, s.opts.ControlInterval, cs...), nil
}

// Controllers snapshots the control plane's controllers (nil when the
// machine booted without Options.Control).
func (s *System) Controllers() []control.State {
	if s.ctl == nil {
		return nil
	}
	return s.ctl.States()
}

// ControlTick steps every controller once at the current clock instant —
// the deterministic driver simclock tests and SC6 use. No-op without
// Options.Control.
func (s *System) ControlTick() {
	if s.ctl != nil {
		s.ctl.Tick()
	}
}

// StartControl launches the control plane's background tick loop (no-op
// without Options.Control); StopControl halts it.
func (s *System) StartControl() {
	if s.ctl != nil {
		s.ctl.Start()
	}
}

// StopControl stops the background tick loop.
func (s *System) StopControl() {
	if s.ctl != nil {
		s.ctl.Stop()
	}
}
