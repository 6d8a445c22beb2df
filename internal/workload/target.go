// Target abstracts the machine a macro workload runs against, so one
// runner drives both a single core.System and an internal/cluster fleet.
// Every method maps to the system entry point its op class exercises; the
// two extras — CostOps and SimClock — exist for determinism: per-op
// latency is measured in simulated device operations (the SC8 idiom, not
// wall clock), and pacing advances the shared simulated clock so admission
// token buckets refill identically on every run.

package workload

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/membrane"
	"repro/internal/ps"
	"repro/internal/purpose"
	"repro/internal/rights"
	"repro/internal/simclock"
	"repro/internal/typedsl"
)

// Target is the machine under macro load.
type Target interface {
	// Name labels the target in the scorecard ("system", "cluster-2", ...).
	Name() string

	// Setup surface, used by the runner's prepare phase.
	DeclareTypesDSL(src string, copts typedsl.CompileOptions) error
	CreateType(sch *dbfs.Schema) error
	Register(decl *purpose.Decl, impl *ded.Func) error
	SetRateLimit(purposeName string, ratePerSec, burst float64) error

	// Op surface, one entry point per op class.
	Insert(typeName, subjectID string, rec dbfs.Record) (string, error)
	Update(pdid string, rec dbfs.Record) error
	Invoke(req ps.InvokeRequest) (*ded.Result, error)
	Access(subjectID string) (*rights.AccessReport, error)
	AccessBatch(subjectIDs []string) ([]*rights.AccessReport, error)
	Erase(subjectID string) ([]string, error)
	SetConsent(subjectID, purposeName string, g membrane.Grant) error
	WithdrawConsent(subjectID, purposeName string) error
	SweepExpired() ([]string, error)

	// Invariant surface, used by the post-run checks. ResidueScan is
	// batch-form: one raw-device traversal covers every sampled pattern.
	GetRecord(pdid string) (dbfs.Record, error)
	ResidueScan(patterns [][]byte) int

	// CostOps is the deterministic cost counter: total simulated device
	// operations (PD + NPD reads and writes) across the whole target.
	CostOps() uint64
	// SimClock returns the target's simulated clock, nil when it runs on
	// wall time (pacing is then skipped and runs are not byte-identical).
	SimClock() *simclock.Sim
}

// SystemTarget adapts one core.System.
type SystemTarget struct{ Sys *core.System }

// NewSystemTarget wraps a booted system.
func NewSystemTarget(s *core.System) *SystemTarget { return &SystemTarget{Sys: s} }

// Name labels the target.
func (t *SystemTarget) Name() string { return "system" }

// DeclareTypesDSL declares the scenario's types.
func (t *SystemTarget) DeclareTypesDSL(src string, copts typedsl.CompileOptions) error {
	return t.Sys.DeclareTypesDSL(src, copts)
}

// CreateType declares one schema directly.
func (t *SystemTarget) CreateType(sch *dbfs.Schema) error { return t.Sys.CreateType(sch) }

// Register installs a query processing.
func (t *SystemTarget) Register(decl *purpose.Decl, impl *ded.Func) error {
	return t.Sys.PS().Register(decl, impl, false)
}

// SetRateLimit installs a per-purpose admission token bucket.
func (t *SystemTarget) SetRateLimit(purposeName string, ratePerSec, burst float64) error {
	return t.Sys.PS().SetRateLimit(purposeName, ratePerSec, burst)
}

// Insert stores one record.
func (t *SystemTarget) Insert(typeName, subjectID string, rec dbfs.Record) (string, error) {
	return t.Sys.DBFS().Insert(t.Sys.DEDToken(), typeName, subjectID, rec, nil)
}

// Update replaces one record's fields.
func (t *SystemTarget) Update(pdid string, rec dbfs.Record) error {
	return t.Sys.DBFS().Update(t.Sys.DEDToken(), pdid, rec)
}

// Invoke runs a purpose-bound processing through ps_invoke.
func (t *SystemTarget) Invoke(req ps.InvokeRequest) (*ded.Result, error) {
	return t.Sys.PS().Invoke(req)
}

// Access serves one Article 15 report.
func (t *SystemTarget) Access(subjectID string) (*rights.AccessReport, error) {
	return t.Sys.Rights().Access(subjectID)
}

// AccessBatch serves a bulk Article 15 request.
func (t *SystemTarget) AccessBatch(subjectIDs []string) ([]*rights.AccessReport, error) {
	return t.Sys.Rights().AccessBatch(subjectIDs)
}

// Erase executes the right to be forgotten; returns the shredded pdids.
func (t *SystemTarget) Erase(subjectID string) ([]string, error) {
	rep, err := t.Sys.Rights().Erase(subjectID)
	if err != nil {
		return nil, err
	}
	return rep.Erased, nil
}

// SetConsent grants (or changes) one purpose's consent.
func (t *SystemTarget) SetConsent(subjectID, purposeName string, g membrane.Grant) error {
	return t.Sys.Rights().SetConsent(subjectID, purposeName, g)
}

// WithdrawConsent revokes one purpose's consent.
func (t *SystemTarget) WithdrawConsent(subjectID, purposeName string) error {
	return t.Sys.Rights().WithdrawConsent(subjectID, purposeName)
}

// SweepExpired runs one storage-limitation pass.
func (t *SystemTarget) SweepExpired() ([]string, error) { return t.Sys.Rights().SweepExpired() }

// GetRecord reads one record by pdid.
func (t *SystemTarget) GetRecord(pdid string) (dbfs.Record, error) {
	return t.Sys.DBFS().GetRecord(t.Sys.DEDToken(), pdid)
}

// ResidueScan counts plaintext hits of any pattern on the raw devices.
func (t *SystemTarget) ResidueScan(patterns [][]byte) int {
	return t.Sys.ResidueScanAny(patterns)
}

// CostOps sums simulated device operations.
func (t *SystemTarget) CostOps() uint64 {
	st := t.Sys.Stats()
	return st.PDDisk.Reads + st.PDDisk.Writes + st.NPDDisk.Reads + st.NPDDisk.Writes
}

// SimClock exposes the system's simulated clock when it has one.
func (t *SystemTarget) SimClock() *simclock.Sim {
	sim, _ := t.Sys.SimClock()
	return sim
}

// ClusterTarget adapts an internal/cluster fleet: subject-routed ops go
// through the router (which homes them by subject hash), setup fans out to
// every node, and invariant scans sum across nodes.
type ClusterTarget struct{ C *cluster.Cluster }

// Name labels the target with its node count.
func (t *ClusterTarget) Name() string { return fmt.Sprintf("cluster-%d", t.C.Nodes()) }

// DeclareTypesDSL declares the scenario's types on every node.
func (t *ClusterTarget) DeclareTypesDSL(src string, copts typedsl.CompileOptions) error {
	return t.C.DeclareTypesDSL(src, copts)
}

// CreateType declares one schema on every node.
func (t *ClusterTarget) CreateType(sch *dbfs.Schema) error { return t.C.CreateType(sch) }

// Register installs a query processing on every node's Processing Store.
func (t *ClusterTarget) Register(decl *purpose.Decl, impl *ded.Func) error {
	for i := 0; i < t.C.Nodes(); i++ {
		if err := t.C.Node(i).PS().Register(decl, impl, false); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	return nil
}

// SetRateLimit installs the token bucket on every node.
func (t *ClusterTarget) SetRateLimit(purposeName string, ratePerSec, burst float64) error {
	for i := 0; i < t.C.Nodes(); i++ {
		if err := t.C.Node(i).PS().SetRateLimit(purposeName, ratePerSec, burst); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	return nil
}

// Insert stores one record on the subject's home node.
func (t *ClusterTarget) Insert(typeName, subjectID string, rec dbfs.Record) (string, error) {
	return t.C.Insert(typeName, subjectID, rec)
}

// Update replaces one record's fields on the subject's home node.
func (t *ClusterTarget) Update(pdid string, rec dbfs.Record) error {
	_, subject, _, err := dbfs.SplitPDID(pdid)
	if err != nil {
		return err
	}
	n := t.C.Node(t.C.HomeOf(subject))
	return n.DBFS().Update(n.DEDToken(), pdid, rec)
}

// Invoke routes the processing to the filtered subject's home node.
func (t *ClusterTarget) Invoke(req ps.InvokeRequest) (*ded.Result, error) {
	node := 0
	if req.SubjectFilter != "" {
		node = t.C.HomeOf(req.SubjectFilter)
	}
	return t.C.Node(node).PS().Invoke(req)
}

// Access serves one Article 15 report, merged across nodes.
func (t *ClusterTarget) Access(subjectID string) (*rights.AccessReport, error) {
	reps, err := t.C.AccessBatch([]string{subjectID})
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// AccessBatch serves a bulk Article 15 request across the fleet.
func (t *ClusterTarget) AccessBatch(subjectIDs []string) ([]*rights.AccessReport, error) {
	return t.C.AccessBatch(subjectIDs)
}

// Erase shreds the subject cluster-wide (home records + the copies on
// every node the subject's copy-node set names).
func (t *ClusterTarget) Erase(subjectID string) ([]string, error) {
	rep, err := t.C.Erase(subjectID)
	if err != nil {
		return nil, err
	}
	return rep.Erased, nil
}

// SetConsent changes one purpose's consent, fanned out to copies.
func (t *ClusterTarget) SetConsent(subjectID, purposeName string, g membrane.Grant) error {
	_, err := t.C.SetConsent(subjectID, purposeName, g)
	return err
}

// WithdrawConsent revokes one purpose's consent, fanned out to copies.
func (t *ClusterTarget) WithdrawConsent(subjectID, purposeName string) error {
	_, err := t.C.WithdrawConsent(subjectID, purposeName)
	return err
}

// SweepExpired runs one storage-limitation pass over every node.
func (t *ClusterTarget) SweepExpired() ([]string, error) { return t.C.SweepExpired() }

// GetRecord reads one record on its subject's home node.
func (t *ClusterTarget) GetRecord(pdid string) (dbfs.Record, error) { return t.C.GetRecord(pdid) }

// ResidueScan counts plaintext hits of any pattern across every node's
// devices.
func (t *ClusterTarget) ResidueScan(patterns [][]byte) int {
	total := 0
	for i := 0; i < t.C.Nodes(); i++ {
		total += t.C.Node(i).ResidueScanAny(patterns)
	}
	return total
}

// CostOps sums simulated device operations across the fleet.
func (t *ClusterTarget) CostOps() uint64 {
	var total uint64
	for i := 0; i < t.C.Nodes(); i++ {
		st := t.C.Node(i).Stats()
		total += st.PDDisk.Reads + st.PDDisk.Writes + st.NPDDisk.Reads + st.NPDDisk.Writes
	}
	return total
}

// SimClock exposes the fleet's shared simulated clock when it has one.
func (t *ClusterTarget) SimClock() *simclock.Sim {
	sim, _ := t.C.Clock().(*simclock.Sim)
	return sim
}
