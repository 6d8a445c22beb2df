// Package rights implements the data-subject rights on top of the rgpdOS
// components — the paper's §4 illustrations (right of access, right to be
// forgotten) plus the neighbouring rights its mechanisms directly enable
// (rectification, portability, consent withdrawal, restriction, and the
// TTL sweeper that enforces storage limitation).
//
// Every mutation is routed through the Processing Store's built-in
// processings in maintenance mode: rights execution is itself a data
// processing, with a legal-obligation basis, executed by the DED, and
// recorded in the audit log. The engine adds the cross-record logic the
// builtins don't have: expanding a subject to all their PD, and following
// the copy ledger so erasure and consent changes reach every copy
// (membrane consistency).
package rights

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/builtins"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/membrane"
	"repro/internal/ps"
	"repro/internal/simclock"
)

// Engine executes data-subject rights. The cross-record rights — access
// export, subject-wide erasure and consent changes, the TTL sweep — fan
// their per-record work out over a worker pool (the DED executor for
// mutations, a local pool for read-side scans), sized by SetWorkers or, by
// default, the Processing Store's InvokeBatch pool. Reports stay
// deterministic: results are index-addressed and sorted exactly as the
// serial engine produced them.
type Engine struct {
	ps    *ps.Store
	d     *ded.DED
	log   *audit.Log
	clock simclock.Clock

	mu      sync.Mutex
	workers int // 0 = follow ps.DefaultWorkers

	// due is the retention due-index (see sweeper.go), fed by the DBFS
	// expiry notifier; sweeper is the engine's one background sweeper,
	// woken by the index; sweepMu serializes whole sweep passes (manual
	// SweepExpired calls and background Sweeper passes alike); swept
	// records whether the priming full pass has completed.
	due     *dueIndex
	sweeper *Sweeper
	sweepMu sync.Mutex
	swept   bool
	// sweepScanHook, when set (tests only), runs between a sweep pass's
	// scan and delete phases.
	sweepScanHook func()
}

// New wires a rights engine. It registers the engine's retention
// due-index as the store's expiry notifier, so every membrane written
// from here on feeds the deadline-aware sweeper.
func New(p *ps.Store, d *ded.DED, log *audit.Log, clock simclock.Clock) *Engine {
	if clock == nil {
		clock = simclock.Real{}
	}
	store := d.Store()
	e := &Engine{ps: p, d: d, log: log, clock: clock,
		due: newDueIndex(store.NumShards(), store.ShardOf)}
	e.sweeper = newSweeper(e)
	store.SetExpiryNotifier(e.due.note)
	return e
}

// Sweeper returns the engine's background retention sweeper — stopped
// until its Start is called.
func (e *Engine) Sweeper() *Sweeper { return e.sweeper }

// SetWorkers overrides the per-record fan-out width of the cross-record
// rights. Zero (the default) follows the Processing Store's pool size; one
// runs them serially (TestParallelRightsMatchSerial checks both agree).
//
// For an engine owned by a core.System, System.ApplyTuning
// (core.Tuning.RightsWorkers) is the door: it calls this setter.
func (e *Engine) SetWorkers(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n < 0 {
		n = 0
	}
	e.workers = n
}

// Workers reports the configured override (0 = follow the Processing
// Store's pool size).
func (e *Engine) Workers() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.workers
}

// workerCount resolves the effective fan-out width.
func (e *Engine) workerCount() int {
	e.mu.Lock()
	w := e.workers
	e.mu.Unlock()
	if w > 0 {
		return w
	}
	if w := e.ps.DefaultWorkers(); w > 0 {
		return w
	}
	return 1
}

// ForEachIndexed runs fn(i) for every i in [0, n) on up to workers
// goroutines and returns the error of the LOWEST failing index — the same
// error a serial loop would have surfaced first, so parallel rights keep
// deterministic failure reporting. Exported because it is the merge
// contract of every fanned-out rights op: the cluster router uses the
// same helper for its per-node fan-outs, so a multi-node sweep or batch
// access reports exactly the error a single-node engine would have.
func ForEachIndexed(n, workers int, fn func(int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RecordExport is one PD record in a subject-access report: the data with
// meaningful keys (the §4 point about exploitable structure) plus the
// membrane metadata the subject is entitled to see.
type RecordExport struct {
	PDID        string            `json:"pdid"`
	Type        string            `json:"type"`
	Fields      map[string]any    `json:"fields,omitempty"`
	Origin      string            `json:"origin"`
	Sensitivity string            `json:"sensitivity"`
	CreatedAt   time.Time         `json:"created_at"`
	TTL         string            `json:"ttl,omitempty"`
	Consents    map[string]string `json:"consents"`
	Erased      bool              `json:"erased,omitempty"`
	Restricted  bool              `json:"restricted,omitempty"`
	CopyOf      string            `json:"copy_of,omitempty"`
}

// ProcessingEntry is one row of the per-subject processing history.
type ProcessingEntry struct {
	Time    time.Time `json:"time"`
	Kind    string    `json:"kind"`
	Purpose string    `json:"purpose,omitempty"`
	PDID    string    `json:"pdid,omitempty"`
	Outcome string    `json:"outcome"`
	Detail  string    `json:"detail,omitempty"`
}

// AccessReport is the Art. 15 subject-access answer: all the subject's PD in
// structured, machine-readable form, with the processing history "organized
// so that it can give information about executed processings for each piece
// of PD" (§4).
type AccessReport struct {
	SubjectID   string                       `json:"subject"`
	GeneratedAt time.Time                    `json:"generated_at"`
	Data        map[string][]RecordExport    `json:"data"`
	Processings []ProcessingEntry            `json:"processings"`
	PerPD       map[string][]ProcessingEntry `json:"per_pd"`
}

// Access builds the subject-access report. Erased records appear with their
// membrane metadata but no field values (the operator cannot read them).
//
// The membranes are fetched as one DBFS batch (one shard-lock pass, served
// by the membrane cache), the per-record exports — including the decrypt in
// GetRecord — are built on the worker pool, and the per-PD processing
// history is one bulk audit query instead of a log-lock round-trip per
// record. The report is byte-identical to the serial engine's: exports are
// index-addressed and sorted by pdid within each type.
func (e *Engine) Access(subjectID string) (*AccessReport, error) {
	return e.access(subjectID, e.workerCount())
}

// AccessBatch builds access reports for many subjects at once, fanning the
// subjects out over the worker pool — the portal-under-load shape, where
// per-subject parallelism pays best: distinct subjects live on distinct
// DBFS shards (and, with FSInstances > 1, distinct filesystems), so their
// record reads overlap end to end. Reports keep the order of the requested
// subjects; each report is built serially inside its worker, so the pool is
// not oversubscribed.
func (e *Engine) AccessBatch(subjectIDs []string) ([]*AccessReport, error) {
	out := make([]*AccessReport, len(subjectIDs))
	err := ForEachIndexed(len(subjectIDs), e.workerCount(), func(i int) error {
		rep, err := e.access(subjectIDs[i], 1)
		if err != nil {
			return err
		}
		out[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (e *Engine) access(subjectID string, workers int) (*AccessReport, error) {
	store, tok := e.d.Store(), e.d.Token()
	pdids, err := store.ListBySubject(tok, subjectID)
	if err != nil {
		return nil, fmt.Errorf("rights: access %s: %w", subjectID, err)
	}
	report := &AccessReport{
		SubjectID:   subjectID,
		GeneratedAt: e.clock.Now(),
		Data:        make(map[string][]RecordExport),
		PerPD:       make(map[string][]ProcessingEntry),
	}
	ms, err := store.GetMembranes(tok, pdids)
	if err != nil {
		return nil, fmt.Errorf("rights: access %s: %w", subjectID, err)
	}
	exps := make([]RecordExport, len(pdids))
	err = ForEachIndexed(len(pdids), workers, func(i int) error {
		pdid, m := pdids[i], ms[i]
		exp := RecordExport{
			PDID:        pdid,
			Type:        m.TypeName,
			Origin:      m.Origin.String(),
			Sensitivity: m.Sensitivity.String(),
			CreatedAt:   m.CreatedAt,
			Consents:    make(map[string]string, len(m.Consents)),
			Erased:      m.Erased,
			Restricted:  m.Restricted,
			CopyOf:      m.CopyOf,
		}
		if m.TTL > 0 {
			exp.TTL = m.TTL.String()
		}
		for p, g := range m.Consents {
			exp.Consents[p] = g.String()
		}
		if !m.Erased {
			rec, err := store.GetRecord(tok, pdid)
			if err != nil {
				return fmt.Errorf("rights: access %s: %w", pdid, err)
			}
			exp.Fields = make(map[string]any, len(rec))
			for name, v := range rec {
				exp.Fields[name] = v.Export()
			}
		}
		exps[i] = exp
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, exp := range exps {
		report.Data[exp.Type] = append(report.Data[exp.Type], exp)
	}
	for pdid, entries := range e.log.ByPDs(pdids) {
		for _, entry := range entries {
			report.PerPD[pdid] = append(report.PerPD[pdid], toEntry(entry))
		}
	}
	for ty := range report.Data {
		recs := report.Data[ty]
		sort.Slice(recs, func(i, j int) bool { return recs[i].PDID < recs[j].PDID })
	}
	for _, entry := range e.log.BySubject(subjectID) {
		report.Processings = append(report.Processings, toEntry(entry))
	}
	e.log.Append(audit.KindExport, "", "", subjectID, "ok", "subject access report")
	return report, nil
}

func toEntry(entry audit.Entry) ProcessingEntry {
	return ProcessingEntry{
		Time:    entry.Time,
		Kind:    entry.Kind.String(),
		Purpose: entry.Purpose,
		PDID:    entry.PDID,
		Outcome: entry.Outcome,
		Detail:  entry.Detail,
	}
}

// ExportJSON renders the report as indented JSON — "structured and
// machine-readable", with the field names as keys.
func ExportJSON(r *AccessReport) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("rights: export: %w", err)
	}
	return b, nil
}

// Portability is the Art. 20 export: the data portion of the access report
// as JSON (machine-readable for transmission to another operator).
func (e *Engine) Portability(subjectID string) ([]byte, error) {
	report, err := e.Access(subjectID)
	if err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(report.Data, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("rights: portability: %w", err)
	}
	return b, nil
}

// EraseReport summarizes an erasure request.
type EraseReport struct {
	SubjectID string
	// Erased lists the pdids crypto-shredded (copies included).
	Erased []string
}

// Erase executes the right to be forgotten for every PD of the subject,
// following the copy ledger so copies are erased with their originals. The
// family-expanded targets run as one ps.InvokeBatch on the DED executor
// pool — crypto-erasure of a subject's records is per-record independent
// (erasure is idempotent and distinct records never share a data key).
func (e *Engine) Erase(subjectID string) (*EraseReport, error) {
	store, tok := e.d.Store(), e.d.Token()
	pdids, err := store.ListBySubject(tok, subjectID)
	if err != nil {
		return nil, fmt.Errorf("rights: erase %s: %w", subjectID, err)
	}
	targets := e.expandFamilies(pdids)
	reqs := make([]ps.InvokeRequest, len(targets))
	for i, member := range targets {
		reqs[i] = ps.InvokeRequest{
			Processing:  builtins.EraseName,
			PDRef:       member,
			Maintenance: true,
		}
	}
	for i, item := range e.ps.InvokeBatch(reqs, e.workerCount()) {
		if item.Err != nil {
			return nil, fmt.Errorf("rights: erase %s: %w", targets[i], item.Err)
		}
	}
	report := &EraseReport{SubjectID: subjectID, Erased: targets}
	sort.Strings(report.Erased)
	return report, nil
}

// expandFamilies maps pdids through the copy ledger to the deduplicated
// union of their families, in first-seen order.
func (e *Engine) expandFamilies(pdids []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, pdid := range pdids {
		for _, member := range e.d.Ledger().Family(pdid) {
			if seen[member] {
				continue
			}
			seen[member] = true
			out = append(out, member)
		}
	}
	return out
}

// EraseRecord erases one record and every copy in its family.
func (e *Engine) EraseRecord(pdid string) ([]string, error) {
	var erased []string
	for _, member := range e.d.Ledger().Family(pdid) {
		if _, err := e.ps.Invoke(ps.InvokeRequest{
			Processing:  builtins.EraseName,
			PDRef:       member,
			Maintenance: true,
		}); err != nil {
			return erased, fmt.Errorf("rights: erase %s: %w", member, err)
		}
		erased = append(erased, member)
	}
	sort.Strings(erased)
	return erased, nil
}

// Rectify replaces fields of one record (Art. 16).
func (e *Engine) Rectify(pdid string, fields dbfs.Record) error {
	_, err := e.ps.Invoke(ps.InvokeRequest{
		Processing:  builtins.UpdateName,
		PDRef:       pdid,
		Params:      map[string]any{builtins.ParamFields: fields},
		Maintenance: true,
	})
	return err
}

// SetConsent records a consent grant for one purpose on every PD of the
// subject (and every copy).
func (e *Engine) SetConsent(subjectID, purposeName string, g membrane.Grant) error {
	return e.consentAll(subjectID, purposeName, map[string]any{
		builtins.ParamPurpose: purposeName,
		builtins.ParamGrant:   g,
	})
}

// WithdrawConsent revokes a purpose's grant on every PD of the subject (and
// every copy) — Art. 7(3).
func (e *Engine) WithdrawConsent(subjectID, purposeName string) error {
	return e.consentAll(subjectID, purposeName, map[string]any{
		builtins.ParamPurpose: purposeName,
	})
}

// consentAll applies one consent mutation to every PD of the subject (and
// every copy) as a batch on the DED executor pool. Records are disjoint, so
// the per-record atomic read-modify-write (dbfs.MutateMembrane) is the only
// ordering that matters and the fan-out preserves it.
func (e *Engine) consentAll(subjectID, purposeName string, params map[string]any) error {
	store, tok := e.d.Store(), e.d.Token()
	pdids, err := store.ListBySubject(tok, subjectID)
	if err != nil {
		return fmt.Errorf("rights: consent %s: %w", subjectID, err)
	}
	targets := e.expandFamilies(pdids)
	reqs := make([]ps.InvokeRequest, len(targets))
	for i, member := range targets {
		reqs[i] = ps.InvokeRequest{
			Processing:  builtins.ConsentName,
			PDRef:       member,
			Params:      params,
			Maintenance: true,
		}
	}
	for i, item := range e.ps.InvokeBatch(reqs, e.workerCount()) {
		if item.Err != nil {
			return fmt.Errorf("rights: consent %s on %s: %w", purposeName, targets[i], item.Err)
		}
	}
	return nil
}

// Restrict toggles the Art. 18 restriction mark on one record.
func (e *Engine) Restrict(pdid string, restricted bool) error {
	_, err := e.ps.Invoke(ps.InvokeRequest{
		Processing:  builtins.RestrictName,
		PDRef:       pdid,
		Params:      map[string]any{builtins.ParamRestricted: restricted},
		Maintenance: true,
	})
	return err
}

// SweepExpired physically deletes every record whose TTL elapsed — the
// storage-limitation duty ("the time to live ... can be used to implement
// the right to be forgotten", §2). It returns the deleted pdids, sorted.
//
// Since PR 4 the sweep is deadline-aware: the first call is a priming
// pass that scans every subject and seeds the retention due-index; later
// calls are scoped — they consult the index and scan only subjects with a
// deadline actually due, so shards with no due records take no shard lock
// (see sweeper.go, and Engine.Sweeper for the background ticker form). The
// scan fans out over the worker pool, the expired records are deleted as
// one maintenance ps.InvokeBatch on the DED executor, and on a delete
// failure the successfully deleted pdids are still returned alongside the
// first error while the failed record's deadline is re-armed for the next
// pass.
func (e *Engine) SweepExpired() ([]string, error) {
	deleted, _, err := e.sweepOnce()
	return deleted, err
}
