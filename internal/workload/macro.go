// Macro workload generator: the deterministic, seeded open-loop traffic
// source behind SC9. A MacroMix declares per-op-class arrival rates, burst
// envelopes and subject-population skew; Generate expands it into a typed
// op trace (exponential inter-arrivals, merged across classes in time
// order) that is byte-identical for a given (mix, seed) pair. The trace is
// pure data — pacing it onto a machine is the runner's job — so the same
// trace can drive a single core.System, an internal/cluster fleet, or a
// -race soak.
//
// The op classes follow the GDPR-storage benchmark in "Analyzing the
// Impact of GDPR on Storage Systems" (PAPERS.md): ordinary traffic
// (inserts, updates, purpose-bound queries) interleaved with the rights
// traffic a regulated operator actually serves — Article 15 access (single
// and bulk), Article 17 erasure, consent changes, and retention churn.
package workload

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/xrand"
)

// OpClass is one class of macro-workload operation: a class maps to a
// whole system entry point, not a storage primitive.
type OpClass int

// Macro op classes, in canonical order.
const (
	ClassInsert OpClass = iota + 1
	ClassUpdate
	ClassDEDQuery
	ClassAccess
	ClassAccessBatch
	ClassErase
	ClassConsent
	ClassRetention
)

// Classes lists every op class in canonical order. Generation, RNG
// splitting and scorecard rows all iterate this slice, never a map, so
// runs are deterministic.
var Classes = []OpClass{
	ClassInsert, ClassUpdate, ClassDEDQuery, ClassAccess,
	ClassAccessBatch, ClassErase, ClassConsent, ClassRetention,
}

// String names the class as it appears in traces and scorecards.
func (c OpClass) String() string {
	switch c {
	case ClassInsert:
		return "insert"
	case ClassUpdate:
		return "update"
	case ClassDEDQuery:
		return "ded-query"
	case ClassAccess:
		return "access"
	case ClassAccessBatch:
		return "access-batch"
	case ClassErase:
		return "erase"
	case ClassConsent:
		return "consent"
	case ClassRetention:
		return "retention"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Rate is one op class's open-loop arrival spec: a base Poisson rate plus
// an optional periodic burst envelope (rate multiplied by BurstFactor for
// BurstLen out of every BurstEvery). PerSec 0 disables the class.
type Rate struct {
	PerSec      float64
	BurstEvery  time.Duration
	BurstLen    time.Duration
	BurstFactor float64
}

// mean is the envelope-weighted average arrival rate, used to bound trace
// size at validation time.
func (r Rate) mean() float64 {
	if r.PerSec <= 0 {
		return 0
	}
	if r.BurstEvery <= 0 || r.BurstFactor <= 1 {
		return r.PerSec
	}
	frac := float64(r.BurstLen) / float64(r.BurstEvery)
	return r.PerSec * (1 + (r.BurstFactor-1)*frac)
}

// at is the effective arrival rate at offset t within the envelope.
func (r Rate) at(t time.Duration) float64 {
	if r.BurstEvery > 0 && r.BurstFactor > 1 && t%r.BurstEvery < r.BurstLen {
		return r.PerSec * r.BurstFactor
	}
	return r.PerSec
}

// MacroMix declares a macro workload: how long, over how many subjects,
// with what skew, and at what rate per op class. A mix is pure
// declaration; Validate rejects malformed mixes with typed errors before
// anything touches a machine.
type MacroMix struct {
	// Name labels the mix in traces and scorecards.
	Name string
	// Duration is the simulated length of the run.
	Duration time.Duration
	// Subjects sizes the synthetic population (SubjectIDs order).
	Subjects int
	// Skew is the Zipf exponent of subject popularity; <= 1 is uniform.
	Skew float64
	// Rates gives each class its arrival spec. Classes absent from the
	// map are disabled; iteration is always over Classes order.
	Rates map[OpClass]Rate
	// BatchSize is the number of subjects per AccessBatch op.
	BatchSize int
	// QueryPurposes rotates round-robin across DEDQuery ops, so a mix
	// listing one denied purpose gets an exact share of
	// purpose-limitation pressure.
	QueryPurposes []string
	// ConsentPurposes rotates round-robin across Consent ops.
	ConsentPurposes []string
	// WithdrawProb is the probability a Consent op withdraws (vs
	// re-grants) its purpose.
	WithdrawProb float64
	// Limits are the per-purpose admission rate limits installed before
	// the run. They live on the mix, not the scenario, because a limit
	// only means something relative to the offered rate at that scale.
	Limits []LimitSpec
}

// ErrBadMix is the umbrella validation error: every malformed-mix error
// wraps it, and a mix that fails validation applies nothing.
var ErrBadMix = errors.New("workload: bad macro mix")

// maxTraceOps bounds the expected trace size a mix may declare — a
// runaway-rate backstop, not a tuning knob.
const maxTraceOps = 2_000_000

// Validate checks the mix declaration. All failures wrap ErrBadMix.
func (m MacroMix) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("%w: empty name", ErrBadMix)
	}
	if m.Duration <= 0 {
		return fmt.Errorf("%w %q: duration %v not positive", ErrBadMix, m.Name, m.Duration)
	}
	if m.Subjects <= 0 {
		return fmt.Errorf("%w %q: %d subjects", ErrBadMix, m.Name, m.Subjects)
	}
	if m.Skew < 0 {
		return fmt.Errorf("%w %q: negative skew %v", ErrBadMix, m.Name, m.Skew)
	}
	if m.WithdrawProb < 0 || m.WithdrawProb > 1 {
		return fmt.Errorf("%w %q: withdraw probability %v outside [0,1]", ErrBadMix, m.Name, m.WithdrawProb)
	}
	var expected float64
	for _, c := range Classes {
		r, ok := m.Rates[c]
		if !ok {
			continue
		}
		if r.PerSec < 0 {
			return fmt.Errorf("%w %q: class %s: negative rate %v", ErrBadMix, m.Name, c, r.PerSec)
		}
		if r.BurstEvery < 0 || r.BurstLen < 0 {
			return fmt.Errorf("%w %q: class %s: negative burst envelope", ErrBadMix, m.Name, c)
		}
		if r.BurstEvery > 0 && r.BurstLen > r.BurstEvery {
			return fmt.Errorf("%w %q: class %s: burst length %v exceeds period %v",
				ErrBadMix, m.Name, c, r.BurstLen, r.BurstEvery)
		}
		if (r.BurstEvery > 0) != (r.BurstLen > 0) {
			return fmt.Errorf("%w %q: class %s: burst envelope needs both period and length",
				ErrBadMix, m.Name, c)
		}
		if r.BurstEvery > 0 && r.BurstFactor < 1 {
			return fmt.Errorf("%w %q: class %s: burst factor %v below 1",
				ErrBadMix, m.Name, c, r.BurstFactor)
		}
		expected += r.mean() * m.Duration.Seconds()
	}
	for c := range m.Rates {
		if c < ClassInsert || c > ClassRetention {
			return fmt.Errorf("%w %q: unknown op class %d", ErrBadMix, m.Name, int(c))
		}
	}
	if expected > maxTraceOps {
		return fmt.Errorf("%w %q: ~%.0f expected ops exceeds the %d cap",
			ErrBadMix, m.Name, expected, maxTraceOps)
	}
	if m.rate(ClassAccessBatch) > 0 && m.BatchSize <= 0 {
		return fmt.Errorf("%w %q: access-batch rate set but batch size %d", ErrBadMix, m.Name, m.BatchSize)
	}
	if m.rate(ClassDEDQuery) > 0 && len(m.QueryPurposes) == 0 {
		return fmt.Errorf("%w %q: ded-query rate set but no query purposes", ErrBadMix, m.Name)
	}
	if m.rate(ClassConsent) > 0 && len(m.ConsentPurposes) == 0 {
		return fmt.Errorf("%w %q: consent rate set but no consent purposes", ErrBadMix, m.Name)
	}
	for _, l := range m.Limits {
		if l.Purpose == "" {
			return fmt.Errorf("%w %q: rate limit with empty purpose", ErrBadMix, m.Name)
		}
		if l.RatePerSec <= 0 || l.Burst <= 0 {
			return fmt.Errorf("%w %q: rate limit for %s not positive", ErrBadMix, m.Name, l.Purpose)
		}
	}
	return nil
}

func (m MacroMix) rate(c OpClass) float64 { return m.Rates[c].PerSec }

// Op is one generated operation. The trace is fully materialized data:
// executing it requires no further randomness.
type Op struct {
	// Seq is the op's position in the merged trace.
	Seq int
	// At is the arrival offset from the start of the run.
	At time.Duration
	// Class selects the entry point.
	Class OpClass
	// Subject targets one subject (empty only for class bookkeeping that
	// needs none).
	Subject string
	// Batch lists the subjects of an AccessBatch op.
	Batch []string
	// Purpose names the query or consent purpose.
	Purpose string
	// Withdraw marks a Consent op as a withdrawal (vs a re-grant).
	Withdraw bool
}

// Generate expands the mix into its op trace for one seed. The trace is
// deterministic: per-class RNG streams are split from the seed in Classes
// order, arrivals are exponential against the burst envelope, and the
// merged order breaks time ties by (class, per-class index). A mix that
// fails Validate generates nothing.
func Generate(m MacroMix, seed uint64) ([]Op, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	subjects := SubjectIDs(m.Subjects)
	root := xrand.New(seed)
	var ops []Op
	cursor := 0 // access-batch rotation over the population
	for _, class := range Classes {
		rng := root.Split() // every class consumes one split, rate or not
		r, ok := m.Rates[class]
		if !ok || r.PerSec <= 0 {
			continue
		}
		picker := NewPicker(rng, subjects, m.Skew)
		t := time.Duration(0)
		idx := 0
		for {
			// Exponential inter-arrival at the envelope's current rate.
			u := rng.Float64()
			dt := -math.Log(1-u) / r.at(t)
			t += time.Duration(dt * float64(time.Second))
			if t >= m.Duration {
				break
			}
			op := Op{At: t, Class: class}
			switch class {
			case ClassAccessBatch:
				op.Batch = make([]string, 0, m.BatchSize)
				for j := 0; j < m.BatchSize; j++ {
					op.Batch = append(op.Batch, subjects[(cursor+j)%len(subjects)])
				}
				cursor = (cursor + m.BatchSize) % len(subjects)
			case ClassDEDQuery:
				op.Subject = picker.Pick()
				op.Purpose = m.QueryPurposes[idx%len(m.QueryPurposes)]
			case ClassConsent:
				op.Subject = picker.Pick()
				op.Purpose = m.ConsentPurposes[idx%len(m.ConsentPurposes)]
				op.Withdraw = rng.Bool(m.WithdrawProb)
			default:
				op.Subject = picker.Pick()
			}
			ops = append(ops, op)
			idx++
		}
	}
	// Stable sort by arrival time only: ops were appended class-block by
	// class-block in canonical order, in time order within each block, so
	// equal arrivals keep (class order, per-class index) — a fully
	// deterministic merge with no explicit tie-break bookkeeping.
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	for i := range ops {
		ops[i].Seq = i
	}
	return ops, nil
}

// EncodeTrace renders the trace in a canonical line format, one op per
// line — the byte-identity witness for determinism tests and `rgpdctl
// macro -trace`.
func EncodeTrace(ops []Op) []byte {
	var out []byte
	for _, op := range ops {
		out = append(out, strconv.Itoa(op.Seq)...)
		out = append(out, ' ')
		out = append(out, strconv.FormatInt(op.At.Microseconds(), 10)...)
		out = append(out, "us "...)
		out = append(out, op.Class.String()...)
		if op.Subject != "" {
			out = append(out, ' ')
			out = append(out, op.Subject...)
		}
		for _, s := range op.Batch {
			out = append(out, ' ')
			out = append(out, s...)
		}
		if op.Purpose != "" {
			out = append(out, " purpose="...)
			out = append(out, op.Purpose...)
		}
		if op.Withdraw {
			out = append(out, " withdraw"...)
		}
		out = append(out, '\n')
	}
	return out
}
