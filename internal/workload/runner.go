// The macro runner: executes a generated op trace against a Target in
// trace order, paced on the target's simulated clock, and folds the
// outcomes into a Scorecard. Determinism is the whole design:
//
//   - per-op latency is the delta of the target's simulated device-op
//     counter scaled by a nominal per-op cost (the SC8 idiom) — never wall
//     clock — so the per-class histograms are byte-identical across runs;
//   - pacing sets the simulated clock to each op's arrival offset, so
//     admission token buckets refill (and reject bursts) identically;
//   - the runner keeps a shadow model of every live record's expected
//     consent map and erased secrets, and the post-run invariants check
//     the machine against the model: zero plaintext residue of erased
//     secrets, zero erased-but-readable records, zero consent-inconsistent
//     access exports.

package workload

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/cryptoshred"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/membrane"
	"repro/internal/ps"
	"repro/internal/purpose"
	"repro/internal/rights"
	"repro/internal/typedsl"
)

// CostOpLatency is the nominal simulated latency of one device operation:
// per-op latency = device-op delta x CostOpLatency. The absolute value is
// a modeling constant (NVMe-ish); only ratios between op classes matter.
const CostOpLatency = 25 * time.Microsecond

// RunConfig tunes one scenario run.
type RunConfig struct {
	// Seed drives the trace generation.
	Seed uint64
	// Small selects the scenario's CI-scale mix.
	Small bool
	// Pace advances the target's simulated clock to each op's arrival
	// offset (required for byte-identical scorecards; leave false only
	// for soak tests that execute the trace concurrently).
	Pace bool
}

// BootSizing returns PD-disk block, NPD-disk block and inode counts large
// enough for the mix's seeded population plus every insert the trace will
// issue, doubling from the usual probe-machine floor. The NPD disk must at
// least hold its half-share inode table (inodes/2 at 16 per block) plus the
// audit trail the run appends. TestSC9Golden, rgpdctl macro and the scenario
// examples all size their machines with it.
func BootSizing(mix MacroMix, ops []Op) (blocks, npdBlocks, inodes uint64) {
	inserts := 0
	for _, op := range ops {
		if op.Class == ClassInsert || op.Class == ClassRetention {
			inserts++
		}
	}
	n := uint64(mix.Subjects + inserts + 64)
	blocks, npdBlocks, inodes = 16384, 4096, 8192
	for blocks < n*24+4096 {
		blocks *= 2
	}
	for inodes < n*8+1024 {
		inodes *= 2
	}
	for npdBlocks < inodes/32+n*4+512 {
		npdBlocks *= 2
	}
	return blocks, npdBlocks, inodes
}

// liveRec is the runner's shadow of one inserted record.
type liveRec struct {
	pdid     string
	secret   string
	consents map[string]string // purpose -> expected grant spelling
}

// runState carries the shadow model across ops.
type runState struct {
	live        map[string][]*liveRec // subject -> live records, insert order
	mustBeGone  []string              // secrets of erased records
	erasedPDs   []string              // pdids of erased records
	erasedSubjs int                   // distinct subjects erased while live
	seeded      int
	retN        int // retention ops seen (every 8th sweeps)
}

// outcome classifies one executed op.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeRejected
	outcomeDenied
	outcomeFailed
)

// classify maps an op error to its outcome: admission shedding is
// Rejected, GDPR enforcement (consent, erasure, restriction, expiry, gone
// records) is Denied, anything else is a genuine Failure.
func classify(err error) outcome {
	switch {
	case err == nil:
		return outcomeOK
	case errors.Is(err, admission.ErrOverloaded):
		return outcomeRejected
	case errors.Is(err, membrane.ErrErased),
		errors.Is(err, membrane.ErrConsentDenied),
		errors.Is(err, membrane.ErrRestricted),
		errors.Is(err, membrane.ErrExpired),
		errors.Is(err, cryptoshred.ErrKeyDestroyed),
		errors.Is(err, dbfs.ErrNoRecord):
		return outcomeDenied
	default:
		return outcomeFailed
	}
}

// secretOf derives the unique per-record secret planted in the sensitive
// field: unique per (subject, seq) so an erased record's secret never
// reappears through a later re-insert and the residue invariant stays
// exact.
func secretOf(scenario, subject string, seq int) string {
	return "sx-" + scenario + "-" + subject + "-" + itoa(seq)
}

// Prepare declares the scenario on the target and seeds its population:
// types, query processings, rate limits, one PD record per subject. The
// seeded inserts are setup, not workload — they never enter the scorecard.
func Prepare(t Target, sc Scenario, mix MacroMix) (*runState, error) {
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	if err := t.DeclareTypesDSL(sc.DSL, typedsl.CompileOptions{}); err != nil {
		return nil, fmt.Errorf("workload: declare %s: %w", sc.Name, err)
	}
	if mix.rate(ClassRetention) > 0 {
		if err := t.CreateType(SessionSchema()); err != nil {
			return nil, fmt.Errorf("workload: session type: %w", err)
		}
	}
	for _, q := range sc.Queries {
		decl := &purpose.Decl{
			Name:        q.Purpose,
			Description: q.Description,
			Basis:       purpose.BasisConsent,
			Reads:       q.Reads,
		}
		reads := q.Reads
		impl := &ded.Func{
			Name:          "macro_" + q.Purpose,
			Purpose:       q.Purpose,
			DeclaredReads: reads,
			Fn: func(c *ded.Ctx) (ded.Output, error) {
				// Touch every visible declared field; the output is a
				// count so the pipeline has something non-PD to return.
				n := int64(0)
				for _, r := range reads {
					field := r[len(sc.TypeName)+1:]
					if c.Has(field) {
						if _, err := c.Field(field); err != nil {
							return ded.Output{}, err
						}
						n++
					}
				}
				return ded.Output{NonPD: n}, nil
			},
		}
		if err := t.Register(decl, impl); err != nil {
			return nil, fmt.Errorf("workload: register %s: %w", q.Purpose, err)
		}
	}
	for _, l := range mix.Limits {
		if err := t.SetRateLimit(l.Purpose, l.RatePerSec, l.Burst); err != nil {
			return nil, fmt.Errorf("workload: limit %s: %w", l.Purpose, err)
		}
	}
	st := &runState{live: make(map[string][]*liveRec, mix.Subjects)}
	for i, subject := range SubjectIDs(mix.Subjects) {
		secret := secretOf(sc.Name, subject, 0)
		pdid, err := t.Insert(sc.TypeName, subject, sc.Record(subject, secret, 0))
		if err != nil {
			return nil, fmt.Errorf("workload: seed subject %d: %w", i, err)
		}
		st.live[subject] = append(st.live[subject], &liveRec{
			pdid: pdid, secret: secret, consents: cloneConsents(sc.Defaults),
		})
		st.seeded++
	}
	return st, nil
}

func cloneConsents(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// RunScenario generates the trace, prepares the target and executes the
// whole scenario, returning its scorecard. The target must be freshly
// booted (no scenario types declared yet).
func RunScenario(t Target, sc Scenario, cfg RunConfig) (*Scorecard, error) {
	mix := sc.MixFor(cfg.Small)
	ops, err := Generate(mix, cfg.Seed)
	if err != nil {
		return nil, err
	}
	st, err := Prepare(t, sc, mix)
	if err != nil {
		return nil, err
	}
	card := newScorecard(sc, t.Name(), mix, cfg)
	sim := t.SimClock()
	var start time.Time
	if sim != nil {
		start = sim.Now()
	}
	for i := range ops {
		op := &ops[i]
		if cfg.Pace && sim != nil {
			sim.Set(start.Add(op.At))
		}
		c0 := t.CostOps()
		out := execOp(t, sc, st, card, op)
		cost := t.CostOps() - c0
		card.observe(op.Class, out, time.Duration(cost)*CostOpLatency)
	}
	if err := checkInvariants(t, sc, st, card); err != nil {
		return nil, err
	}
	card.finish(mix)
	return card, nil
}

// execOp executes one op and updates the shadow model. Only genuine
// machine errors surface as Failed outcomes; enforcement denials and
// admission rejects are expected traffic.
func execOp(t Target, sc Scenario, st *runState, card *Scorecard, op *Op) outcome {
	switch op.Class {
	case ClassInsert:
		secret := secretOf(sc.Name, op.Subject, op.Seq)
		pdid, err := t.Insert(sc.TypeName, op.Subject, sc.Record(op.Subject, secret, op.Seq))
		if err != nil {
			return classify(err)
		}
		st.live[op.Subject] = append(st.live[op.Subject], &liveRec{
			pdid: pdid, secret: secret, consents: cloneConsents(sc.Defaults),
		})
		return outcomeOK

	case ClassUpdate:
		recs := st.live[op.Subject]
		if len(recs) == 0 {
			// Nothing left to update (erased subject): the op denies
			// without touching the machine, like a 404 on a gone profile.
			return outcomeDenied
		}
		r := recs[op.Seq%len(recs)]
		return classify(t.Update(r.pdid, sc.Record(op.Subject, r.secret, op.Seq)))

	case ClassDEDQuery:
		res, err := t.Invoke(ps.InvokeRequest{
			Processing:    op.Purpose,
			TypeName:      sc.TypeName,
			SubjectFilter: op.Subject,
		})
		if err != nil {
			return classify(err)
		}
		if res.Processed == 0 && filteredTotal(res) > 0 {
			return outcomeDenied
		}
		return outcomeOK

	case ClassAccess:
		rep, err := t.Access(op.Subject)
		if err != nil {
			return classify(err)
		}
		checkAccessReport(sc, st, card, rep)
		return outcomeOK

	case ClassAccessBatch:
		reps, err := t.AccessBatch(op.Batch)
		if err != nil {
			return classify(err)
		}
		for _, rep := range reps {
			checkAccessReport(sc, st, card, rep)
		}
		return outcomeOK

	case ClassErase:
		erased, err := t.Erase(op.Subject)
		if err != nil {
			return classify(err)
		}
		if len(st.live[op.Subject]) > 0 {
			st.erasedSubjs++
		}
		for _, r := range st.live[op.Subject] {
			st.mustBeGone = append(st.mustBeGone, r.secret)
			st.erasedPDs = append(st.erasedPDs, r.pdid)
		}
		delete(st.live, op.Subject)
		card.Invariants.ErasedRecords += len(erased)
		return outcomeOK

	case ClassConsent:
		var err error
		var want string
		if op.Withdraw {
			err = t.WithdrawConsent(op.Subject, op.Purpose)
			want = "none"
		} else {
			err = t.SetConsent(op.Subject, op.Purpose, membrane.Grant{Kind: membrane.GrantAll})
			want = "all"
		}
		if err != nil {
			return classify(err)
		}
		for _, r := range st.live[op.Subject] {
			r.consents[op.Purpose] = want
		}
		return outcomeOK

	case ClassRetention:
		st.retN++
		if st.retN%8 == 0 {
			swept, err := t.SweepExpired()
			if err != nil {
				return classify(err)
			}
			card.Invariants.SweptRecords += len(swept)
			return outcomeOK
		}
		_, err := t.Insert("session", op.Subject, SessionRecord(op.Seq))
		return classify(err)

	default:
		return outcomeFailed
	}
}

func filteredTotal(res *ded.Result) int {
	n := 0
	for _, v := range res.Filtered {
		n += v
	}
	return n
}

// checkAccessReport verifies one Article-15 report against the shadow
// model: every non-erased export of the scenario type must carry exactly
// the consents the model expects for that record. Art. 15(1) makes the
// report the subject's view of their consents — an inconsistent report is
// a compliance bug, not a performance number.
func checkAccessReport(sc Scenario, st *runState, card *Scorecard, rep *rights.AccessReport) {
	if rep == nil {
		return
	}
	exports := make(map[string]*rights.RecordExport)
	for i := range rep.Data[sc.TypeName] {
		e := &rep.Data[sc.TypeName][i]
		exports[e.PDID] = e
	}
	for _, r := range st.live[rep.SubjectID] {
		e, ok := exports[r.pdid]
		if !ok || e.Erased {
			card.Invariants.ConsentMismatches++
			continue
		}
		for p, want := range r.consents {
			if e.Consents[p] != want {
				card.Invariants.ConsentMismatches++
			}
		}
		card.Invariants.AccessChecked++
	}
}

// maxResidueScans bounds the post-run raw-device residue sample: the
// batch scan makes one device traversal regardless of pattern count, but
// the per-position candidate checks still grow with the sample, so the
// check takes a deterministic prefix of the erased secrets.
// ResidueChecked reports the sample size; live secrets never appear in
// plaintext anyway (everything is sealed), so the sample is a witness of
// shredding, not a coverage count.
const maxResidueScans = 64

// checkInvariants runs the post-run model-vs-machine checks.
func checkInvariants(t Target, sc Scenario, st *runState, card *Scorecard) error {
	scans := st.mustBeGone
	if len(scans) > maxResidueScans {
		scans = scans[:maxResidueScans]
	}
	if len(scans) > 0 {
		patterns := make([][]byte, len(scans))
		for i, secret := range scans {
			patterns[i] = []byte(secret)
		}
		card.Invariants.ResidueHits = t.ResidueScan(patterns)
	}
	card.Invariants.ResidueChecked = len(scans)
	for _, pdid := range st.erasedPDs {
		if _, err := t.GetRecord(pdid); err == nil {
			card.Invariants.ErasedReadable++
		}
	}
	card.Invariants.ErasedSubjects = st.erasedSubjs
	card.Invariants.SeededSubjects = st.seeded
	return nil
}

// Soak executes a pre-generated trace concurrently over workers goroutines
// with no pacing, no shadow model and no scorecard — the -race harness for
// the macro path. Every op hits the machine directly (updates target the
// seeded record, which a concurrent erase may legitimately deny), and the
// summed outcome counts come back unordered so tests can assert the
// machine survived without genuine failures.
func Soak(t Target, sc Scenario, mix MacroMix, ops []Op, workers int) (ok, rejected, denied, failed int, err error) {
	st, err := Prepare(t, sc, mix)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	// Read-only snapshot of the seeded population: the only state workers
	// share besides the machine itself.
	seeded := make(map[string]string, len(st.live))
	for subject, recs := range st.live {
		seeded[subject] = recs[0].pdid
	}
	if workers < 1 {
		workers = 1
	}
	ch := make(chan *Op, workers)
	results := make(chan outcome, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for op := range ch {
				results <- soakOp(t, sc, seeded, op)
			}
		}()
	}
	go func() {
		for i := range ops {
			ch <- &ops[i]
		}
		close(ch)
	}()
	for range ops {
		switch <-results {
		case outcomeOK:
			ok++
		case outcomeRejected:
			rejected++
		case outcomeDenied:
			denied++
		default:
			failed++
		}
	}
	return ok, rejected, denied, failed, nil
}

// soakOp is execOp without the shadow model: raw machine traffic.
func soakOp(t Target, sc Scenario, seeded map[string]string, op *Op) outcome {
	switch op.Class {
	case ClassInsert:
		_, err := t.Insert(sc.TypeName, op.Subject,
			sc.Record(op.Subject, secretOf(sc.Name, op.Subject, op.Seq), op.Seq))
		return classify(err)
	case ClassUpdate:
		pdid, ok := seeded[op.Subject]
		if !ok {
			return outcomeDenied
		}
		return classify(t.Update(pdid, sc.Record(op.Subject, secretOf(sc.Name, op.Subject, 0), op.Seq)))
	case ClassDEDQuery:
		res, err := t.Invoke(ps.InvokeRequest{
			Processing: op.Purpose, TypeName: sc.TypeName, SubjectFilter: op.Subject,
		})
		if err == nil && res.Processed == 0 && filteredTotal(res) > 0 {
			return outcomeDenied
		}
		return classify(err)
	case ClassAccess:
		_, err := t.Access(op.Subject)
		return classify(err)
	case ClassAccessBatch:
		_, err := t.AccessBatch(op.Batch)
		return classify(err)
	case ClassErase:
		_, err := t.Erase(op.Subject)
		return classify(err)
	case ClassConsent:
		if op.Withdraw {
			return classify(t.WithdrawConsent(op.Subject, op.Purpose))
		}
		return classify(t.SetConsent(op.Subject, op.Purpose, membrane.Grant{Kind: membrane.GrantAll}))
	case ClassRetention:
		if op.Seq%8 == 0 {
			_, err := t.SweepExpired()
			return classify(err)
		}
		_, err := t.Insert("session", op.Subject, SessionRecord(op.Seq))
		return classify(err)
	default:
		return outcomeFailed
	}
}
