package main

import (
	"errors"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/membrane"
	"repro/internal/ps"
	"repro/internal/rights"
	"repro/internal/typedsl"
	"repro/internal/workload"
)

// opKind indexes the latency series kept at the Target boundary.
type opKind int

const (
	kInsert opKind = iota // Insert of the scenario type
	kUpdate
	kQuery
	kAccess
	kAccessBatch
	kErase
	kConsent
	kSweep
	kSession // retention-churn Insert of the "session" type
	nKinds
)

var kindNames = [nKinds]string{
	"insert", "update", "query", "access", "accessbatch", "erase", "consent", "sweep", "session",
}

// timedTarget decorates workload.SystemTarget with wall-clock timing. It
// finds the phase boundaries from the calls the runner makes: set-up runs
// from DeclareTypesDSL to the return of the seedN-th Insert (workload.Prepare
// seeds one record per subject), the timed phase from there to the return
// of the last op; the invariant scan (GetRecord, ResidueScan) is outside
// both.
type timedTarget struct {
	*workload.SystemTarget
	typeName string
	seedN    int
	// onSeeded runs once, inside the seedN-th Insert, after its record is
	// stored: the run snapshots its counters there.
	onSeeded func()
	// onScan runs once, on the first invariant-scan call after the last op.
	onScan   func()
	scanOnce sync.Once

	mu sync.Mutex
	// failQuery makes the n-th (1-based) query report a machine error
	// without reaching the system — the smoke test's fake fault. 0: never.
	failQuery int
	inserts   int
	ops       int
	declareAt time.Time
	seededAt  time.Time
	lastEnd   time.Time
	samples   [nKinds][]int64 // ns per call, timed phase only
	ded       dedTotals
	tr        *tracer // nil with tracing off
}

// dedTotals sums ded.Result over the timed phase's successful queries.
type dedTotals struct {
	queries  int
	opTime   time.Duration // ps_invoke wall time of those queries
	stages   ded.StageTimings
	records  int // processed + filtered
	filtered int
}

func newTimedTarget(sys *core.System, typeName string, seedN int) *timedTarget {
	return &timedTarget{SystemTarget: workload.NewSystemTarget(sys), typeName: typeName, seedN: seedN}
}

// opStart is what begin hands to end.
type opStart struct {
	kind   opKind
	at     time.Time
	counts opCounts // traced serial runs only
}

func (t *timedTarget) begin(k opKind) opStart {
	s := opStart{kind: k}
	if t.tr != nil {
		s.counts = t.tr.begin()
	}
	s.at = time.Now()
	return s
}

func (t *timedTarget) end(s opStart, err error, res *ded.Result) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seededAt.IsZero() {
		return // still seeding
	}
	t.lastEnd = now
	t.samples[s.kind] = append(t.samples[s.kind], int64(now.Sub(s.at)))
	if res != nil {
		t.ded.queries++
		t.ded.opTime += now.Sub(s.at)
		t.ded.stages = addStages(t.ded.stages, res.Timings)
		f := 0
		for _, n := range res.Filtered {
			f += n
		}
		t.ded.records += res.Processed + f
		t.ded.filtered += f
	}
	if t.tr != nil {
		t.tr.op(t.ops, s, now, err, res)
	}
	t.ops++
}

func addStages(a, b ded.StageTimings) ded.StageTimings {
	a.Type2Req += b.Type2Req
	a.LoadMembrane += b.LoadMembrane
	a.Filter += b.Filter
	a.LoadData += b.LoadData
	a.Execute += b.Execute
	a.BuildMembrane += b.BuildMembrane
	a.Store += b.Store
	a.Return += b.Return
	return a
}

// outcomeOf labels a span. The runner's scorecard holds the exact
// ok/denied/rejected/failed split; a span only tells shed from refused.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, admission.ErrOverloaded):
		return "rejected"
	default:
		return "refused"
	}
}

func (t *timedTarget) DeclareTypesDSL(src string, copts typedsl.CompileOptions) error {
	t.declareAt = time.Now()
	return t.SystemTarget.DeclareTypesDSL(src, copts)
}

func (t *timedTarget) Insert(typeName, subjectID string, rec dbfs.Record) (string, error) {
	k := kInsert
	if typeName != t.typeName {
		k = kSession
	}
	s := t.begin(k)
	pdid, err := t.SystemTarget.Insert(typeName, subjectID, rec)
	t.end(s, err, nil)
	if t.seededAt.IsZero() {
		// Prepare seeds from one goroutine, so no lock is needed yet.
		if t.inserts++; t.inserts == t.seedN {
			if t.onSeeded != nil {
				t.onSeeded()
			}
			t.seededAt = time.Now()
		}
	}
	return pdid, err
}

func (t *timedTarget) Update(pdid string, rec dbfs.Record) error {
	s := t.begin(kUpdate)
	err := t.SystemTarget.Update(pdid, rec)
	t.end(s, err, nil)
	return err
}

var errFakeFault = errors.New("e2e: injected fault")

func (t *timedTarget) Invoke(req ps.InvokeRequest) (*ded.Result, error) {
	t.mu.Lock()
	t.failQuery--
	fault := t.failQuery == 0
	t.mu.Unlock()
	if fault {
		return nil, errFakeFault
	}
	s := t.begin(kQuery)
	res, err := t.SystemTarget.Invoke(req)
	t.end(s, err, res)
	return res, err
}

func (t *timedTarget) Access(subjectID string) (*rights.AccessReport, error) {
	s := t.begin(kAccess)
	rep, err := t.SystemTarget.Access(subjectID)
	t.end(s, err, nil)
	return rep, err
}

func (t *timedTarget) AccessBatch(subjectIDs []string) ([]*rights.AccessReport, error) {
	s := t.begin(kAccessBatch)
	reps, err := t.SystemTarget.AccessBatch(subjectIDs)
	t.end(s, err, nil)
	return reps, err
}

func (t *timedTarget) Erase(subjectID string) ([]string, error) {
	s := t.begin(kErase)
	erased, err := t.SystemTarget.Erase(subjectID)
	t.end(s, err, nil)
	return erased, err
}

func (t *timedTarget) SetConsent(subjectID, purposeName string, g membrane.Grant) error {
	s := t.begin(kConsent)
	err := t.SystemTarget.SetConsent(subjectID, purposeName, g)
	t.end(s, err, nil)
	return err
}

func (t *timedTarget) WithdrawConsent(subjectID, purposeName string) error {
	s := t.begin(kConsent)
	err := t.SystemTarget.WithdrawConsent(subjectID, purposeName)
	t.end(s, err, nil)
	return err
}

func (t *timedTarget) SweepExpired() ([]string, error) {
	s := t.begin(kSweep)
	swept, err := t.SystemTarget.SweepExpired()
	t.end(s, err, nil)
	return swept, err
}

// scanned marks the end of the op stream: the runner's post-run checks call
// GetRecord and ResidueScan, never an op method.
func (t *timedTarget) scanned() {
	t.scanOnce.Do(func() {
		if t.onScan != nil {
			t.onScan()
		}
	})
}

func (t *timedTarget) GetRecord(pdid string) (dbfs.Record, error) {
	t.scanned()
	return t.SystemTarget.GetRecord(pdid)
}

func (t *timedTarget) ResidueScan(patterns [][]byte) int {
	t.scanned()
	return t.SystemTarget.ResidueScan(patterns)
}
