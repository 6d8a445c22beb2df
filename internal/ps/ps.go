// Package ps implements the Processing Store, the second component of
// rgpdOS and its only entry point (§2): "Its public interface consists of
// two functions: ps_register and ps_invoke."
//
// Register enforces the paper's checks: a function with no specified
// purpose is rejected outright; a function whose declared accesses do not
// match its purpose raises an alert that requires explicit sysadmin
// approval before the processing becomes invocable. Invoke is the only way
// to run a processing: it instantiates a DED (enforcement rules 1 and 2 —
// the PS alone holds stored processings and alone mints invocations). The
// runtime half of the §3(4) purpose-matching problem is the DED's: the
// function sees only the fields its purpose declares, and touching any
// other fails the invocation with ded.ErrUndeclaredRead.
package ps

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/audit"
	"repro/internal/ded"
	"repro/internal/purpose"
)

// State is a processing's registration state.
type State int

// Processing states.
const (
	// StateActive processings can be invoked.
	StateActive State = iota + 1
	// StatePending processings await sysadmin approval of an alert.
	StatePending
	// StateRejected processings were refused by the sysadmin.
	StateRejected
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StatePending:
		return "pending-approval"
	case StateRejected:
		return "rejected"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Sentinel errors.
var (
	// ErrNoPurpose reports registration without a (valid) purpose.
	ErrNoPurpose = errors.New("ps: function has no specified purpose")
	// ErrPurposeMismatch reports an implementation wired to a different
	// purpose name than its declaration.
	ErrPurposeMismatch = errors.New("ps: implementation purpose does not name the declaration")
	// ErrAlreadyRegistered reports a duplicate processing name.
	ErrAlreadyRegistered = errors.New("ps: processing already registered")
	// ErrPendingApproval reports a registration held for sysadmin review.
	ErrPendingApproval = errors.New("ps: registration pending sysadmin approval")
	// ErrNotRegistered reports an invoke of an unknown processing.
	ErrNotRegistered = errors.New("ps: no such processing")
	// ErrNotActive reports an invoke of a pending/rejected processing.
	ErrNotActive = errors.New("ps: processing is not active")
	// ErrNoAlert reports an unknown alert id.
	ErrNoAlert = errors.New("ps: no such alert")
	// ErrNoCollector reports InitCollect without a wired collector.
	ErrNoCollector = errors.New("ps: no collector wired")
)

// Processing is one stored (purpose, implementation) pair.
type Processing struct {
	Decl    *purpose.Decl
	Impl    *ded.Func
	Builtin bool
	State   State
}

// Info is the externally visible description of a processing — the
// implementation itself never leaves the PS (enforcement rule 1).
type Info struct {
	Name        string
	Description string
	Basis       purpose.Basis
	Reads       []string
	Produces    string
	Builtin     bool
	State       State
}

// Alert is a registration-time purpose-mismatch report requiring sysadmin
// attention.
type Alert struct {
	ID         uint64
	Processing string
	Report     purpose.MatchReport
	Resolved   bool
	Approved   bool
}

// AcquireFunc populates DBFS from a collection source before an invocation
// (ps_invoke's data-collection boolean). Wired by the kernel at boot.
type AcquireFunc func(typeName, method string, subjects []string) (int, error)

// Store is the Processing Store.
type Store struct {
	d       *ded.DED
	log     *audit.Log
	acquire AcquireFunc

	mu       sync.Mutex
	procs    map[string]*Processing
	alerts   []*Alert
	alertSeq uint64
	invoked  atomic.Uint64
	// defaultWorkers is the executor pool size InvokeBatch falls back to
	// when the caller passes workers <= 0; set by the kernel at boot.
	defaultWorkers int
	// adm is the admission controller gating invokes of operator
	// (non-builtin) processings; nil means no admission control
	// (everything is admitted, nothing is counted). Set once at boot via
	// ConfigureAdmission.
	adm *admission.Controller
}

// Stats is a snapshot of Processing Store load counters: how many
// invocations ran, and — when an admission controller is configured — the
// depth, rejection and latency counters of the admission gate.
type Stats struct {
	Invocations uint64
	Admission   admission.Stats
}

// New wires a Processing Store to its DED instance. acquire may be nil if
// collection-on-invoke is not used.
func New(d *ded.DED, log *audit.Log, acquire AcquireFunc) *Store {
	return &Store{d: d, log: log, acquire: acquire, procs: make(map[string]*Processing)}
}

// SetDefaultWorkers sets the executor pool size used when InvokeBatch is
// called with workers <= 0. Values below one reset to the serial default.
func (s *Store) SetDefaultWorkers(workers int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if workers < 1 {
		workers = 1
	}
	s.defaultWorkers = workers
}

// DefaultWorkers reports the executor pool size InvokeBatch falls back to —
// the machine-level concurrency the rights engine sizes its own sweeps with.
func (s *Store) DefaultWorkers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.defaultWorkers
}

// ConfigureAdmission installs the admission controller gating Invoke and
// InvokeBatch. Admission applies at submission time to operator
// processings; built-in processings (rights execution — a legal
// obligation) are never shed. Passing nil removes admission control.
// core.Boot installs a core.System's controller with this setter.
func (s *Store) ConfigureAdmission(c *admission.Controller) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.adm = c
}

// SetRateLimit installs a token-bucket rate limit (ratePerSec, burst) for
// one purpose, keyed by the purpose registry: the purpose must name a
// registered processing, so limits cannot silently target a typo. A rate
// <= 0 removes the limit. Requires a configured admission controller.
func (s *Store) SetRateLimit(purposeName string, ratePerSec, burst float64) error {
	s.mu.Lock()
	c := s.adm
	_, known := s.procs[purposeName]
	s.mu.Unlock()
	if c == nil {
		return fmt.Errorf("ps: rate limit for %q: no admission controller configured", purposeName)
	}
	if !known {
		return fmt.Errorf("%w: %q", ErrNotRegistered, purposeName)
	}
	c.SetPurposeLimit(purposeName, ratePerSec, burst)
	return nil
}

// Stats snapshots the load counters.
func (s *Store) Stats() Stats {
	st := Stats{Invocations: s.invoked.Load()}
	s.mu.Lock()
	c := s.adm
	s.mu.Unlock()
	if c != nil {
		st.Admission = c.Snapshot()
	}
	return st
}

// admit runs the admission gate for one request. It returns a non-nil
// release exactly when the request was admitted by a configured
// controller; the caller must invoke release once with the request's
// completion latency. A nil, nil return means "no admission control
// applies" (no controller, or a built-in processing: rights execution is a
// legal obligation and is never shed).
func (s *Store) admit(req InvokeRequest) (func(time.Duration), error) {
	s.mu.Lock()
	c := s.adm
	p := s.procs[req.Processing]
	s.mu.Unlock()
	if c == nil || (p != nil && p.Builtin) {
		return nil, nil
	}
	return c.Admit(req.Processing)
}

// Register is ps_register. It validates the declaration, requires the
// implementation to name its purpose, and statically matches declared
// accesses against the purpose. A mismatch parks the processing as
// StatePending behind an alert and returns ErrPendingApproval.
func (s *Store) Register(decl *purpose.Decl, impl *ded.Func, builtin bool) error {
	if decl == nil {
		return fmt.Errorf("%w: nil declaration", ErrNoPurpose)
	}
	if err := decl.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrNoPurpose, err)
	}
	if impl == nil {
		return ded.ErrNotFunc
	}
	if err := impl.Validate(); err != nil {
		return err
	}
	if impl.Purpose == "" {
		return fmt.Errorf("%w: implementation %q", ErrNoPurpose, impl.Name)
	}
	if impl.Purpose != decl.Name {
		return fmt.Errorf("%w: impl %q claims %q, declaration is %q",
			ErrPurposeMismatch, impl.Name, impl.Purpose, decl.Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.procs[decl.Name]; dup {
		return fmt.Errorf("%w: %q", ErrAlreadyRegistered, decl.Name)
	}
	p := &Processing{Decl: decl, Impl: impl, Builtin: builtin, State: StateActive}
	report := purpose.Match(decl, impl.DeclaredReads)
	if !report.OK {
		p.State = StatePending
		s.alertSeq++
		s.alerts = append(s.alerts, &Alert{
			ID:         s.alertSeq,
			Processing: decl.Name,
			Report:     report,
		})
		s.procs[decl.Name] = p
		s.log.Append(audit.KindAlert, decl.Name, "", "", "pending",
			"undeclared reads: "+strings.Join(report.Undeclared, ","))
		return fmt.Errorf("%w: %q accesses %v beyond its purpose", ErrPendingApproval,
			decl.Name, report.Undeclared)
	}
	s.procs[decl.Name] = p
	return nil
}

// Approve resolves an alert in favour of the processing (explicit sysadmin
// approval, as the paper requires): the processing becomes active and the
// reads the alert named join its purpose's declared reads, so the DED's
// view shows them.
func (s *Store) Approve(alertID uint64, sysadmin string) error {
	return s.resolve(alertID, sysadmin, true)
}

// Reject resolves an alert against the processing.
func (s *Store) Reject(alertID uint64, sysadmin string) error {
	return s.resolve(alertID, sysadmin, false)
}

func (s *Store) resolve(alertID uint64, sysadmin string, approve bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var alert *Alert
	for _, a := range s.alerts {
		if a.ID == alertID {
			alert = a
			break
		}
	}
	if alert == nil || alert.Resolved {
		return fmt.Errorf("%w: %d", ErrNoAlert, alertID)
	}
	alert.Resolved = true
	alert.Approved = approve
	p, ok := s.procs[alert.Processing]
	if ok && p.State == StatePending {
		if approve {
			// Replaced, never mutated: prepare hands p.Decl to runs
			// outside the lock.
			decl := *p.Decl
			decl.Reads = append(append([]string(nil), p.Decl.Reads...), alert.Report.Undeclared...)
			p.Decl = &decl
			p.State = StateActive
		} else {
			p.State = StateRejected
		}
	}
	outcome, detail := "rejected", "sysadmin="+sysadmin
	if approve {
		outcome = "approved"
		detail += " reads: " + strings.Join(alert.Report.Undeclared, ",")
	}
	s.log.Append(audit.KindAlert, alert.Processing, "", "", outcome, detail)
	return nil
}

// PendingAlerts returns unresolved alerts.
func (s *Store) PendingAlerts() []Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Alert
	for _, a := range s.alerts {
		if !a.Resolved {
			out = append(out, *a)
		}
	}
	return out
}

// Get returns the metadata of a processing (never the implementation).
func (s *Store) Get(name string) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.procs[name]
	if !ok {
		return Info{}, fmt.Errorf("%w: %q", ErrNotRegistered, name)
	}
	return Info{
		Name:        p.Decl.Name,
		Description: p.Decl.Description,
		Basis:       p.Decl.Basis,
		Reads:       append([]string(nil), p.Decl.Reads...),
		Produces:    p.Decl.Produces,
		Builtin:     p.Builtin,
		State:       p.State,
	}, nil
}

// List returns the registered processing names, sorted.
func (s *Store) List() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.procs))
	for name := range s.procs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Invocations reports how many ps_invoke calls ran to completion.
func (s *Store) Invocations() uint64 { return s.invoked.Load() }

// InvokeRequest mirrors ps_invoke's parameters: "the reference of a data
// processing operation, optionally a reference to PD, a data collection
// method and a boolean indicating whether or not the data collection
// function is to be called to initialize DBFS."
type InvokeRequest struct {
	// Processing names the registered processing.
	Processing string
	// PDRef optionally targets one record.
	PDRef string
	// TypeName targets all records of a type when PDRef is empty.
	TypeName string
	// SubjectFilter optionally restricts to one subject.
	SubjectFilter string
	// Params carries arguments for write builtins.
	Params map[string]any
	// CollectMethod and InitCollect trigger acquisition before the run.
	CollectMethod string
	InitCollect   bool
	// CollectSubjects lists the subjects to acquire for.
	CollectSubjects []string
}

// prepare validates an invoke request against the registry, runs the
// optional collection step, and lowers the request to a DED invocation. A
// built-in processing runs in maintenance mode (consent and TTL checks
// bypassed, the legal basis being the request itself); an operator
// processing never does. It is the shared front half of Invoke and
// InvokeBatch.
func (s *Store) prepare(req InvokeRequest) (ded.Invocation, error) {
	s.mu.Lock()
	p, ok := s.procs[req.Processing]
	if !ok {
		s.mu.Unlock()
		return ded.Invocation{}, fmt.Errorf("%w: %q", ErrNotRegistered, req.Processing)
	}
	if p.State != StateActive {
		s.mu.Unlock()
		return ded.Invocation{}, fmt.Errorf("%w: %q is %v", ErrNotActive, req.Processing, p.State)
	}
	acquire := s.acquire
	s.mu.Unlock()

	if req.InitCollect {
		if acquire == nil {
			return ded.Invocation{}, ErrNoCollector
		}
		ty := req.TypeName
		if ty == "" && p.Decl.Produces != "" {
			ty = p.Decl.Produces
		}
		if _, err := acquire(ty, req.CollectMethod, req.CollectSubjects); err != nil {
			return ded.Invocation{}, fmt.Errorf("ps: collection before invoke: %w", err)
		}
	}
	return ded.Invocation{
		Purpose:       p.Decl,
		Impl:          p.Impl,
		PDRef:         req.PDRef,
		TypeName:      req.TypeName,
		SubjectFilter: req.SubjectFilter,
		Params:        req.Params,
		Maintenance:   p.Builtin,
	}, nil
}

// Invoke is ps_invoke. When an admission controller is configured the
// request passes the admission gate first (the purpose's token bucket);
// a rejection returns an error wrapping
// admission.ErrOverloaded without touching the DED.
func (s *Store) Invoke(req InvokeRequest) (*ded.Result, error) {
	release, err := s.admit(req)
	if err != nil {
		return nil, err
	}
	var start time.Time
	if release != nil {
		start = time.Now()
		defer func() { release(time.Since(start)) }()
	}
	inv, err := s.prepare(req)
	if err != nil {
		return nil, err
	}
	res, err := s.d.Run(inv)
	if err != nil {
		return nil, err
	}
	s.invoked.Add(1)
	return res, nil
}

// InvokeBatch is the concurrent form of ps_invoke: the requests pass the
// admission gate and are validated and collection-initialized one by one,
// in request order (approval state and the builtins' maintenance mode
// apply exactly as in Invoke), then the admitted invocations run on a
// worker pool through the DED. Outcomes keep request order and are per-request — one failure
// never aborts its siblings, and an admission rejection is a typed outcome
// (Rejected set, Err wrapping admission.ErrOverloaded), never a silent
// drop. Every successful run counts toward Invocations.
//
// The whole batch is admitted up front: a batch is a burst arrival, so a
// batch larger than its purpose's remaining burst sheds its tail. Each
// admitted request counts toward the gate's depth from submission until
// its invocation completes.
func (s *Store) InvokeBatch(reqs []InvokeRequest, workers int) []ded.BatchItem {
	if workers <= 0 {
		s.mu.Lock()
		workers = s.defaultWorkers
		s.mu.Unlock()
		if workers <= 0 {
			workers = 1
		}
	}
	out := make([]ded.BatchItem, len(reqs))
	type job struct {
		i       int
		inv     ded.Invocation
		release func(time.Duration)
		start   time.Time
	}
	jobs := make([]job, 0, len(reqs))
	for i, req := range reqs {
		release, err := s.admit(req)
		if err != nil {
			out[i] = ded.BatchItem{Err: err, Rejected: true}
			continue
		}
		var start time.Time
		if release != nil {
			start = time.Now()
		}
		inv, err := s.prepare(req)
		if err != nil {
			if release != nil {
				release(time.Since(start))
			}
			out[i].Err = err
			continue
		}
		jobs = append(jobs, job{i: i, inv: inv, release: release, start: start})
	}
	if len(jobs) == 0 {
		return out
	}
	// The DED executor runs the admitted invocations; the completion hook
	// counts each successful run and releases its admission slot the
	// moment it finishes, so the gate's depth stays truthful.
	invs := make([]ded.Invocation, len(jobs))
	for j, jb := range jobs {
		invs[j] = jb.inv
	}
	items := s.d.RunBatch(invs, workers, func(j int, item ded.BatchItem) {
		if item.Err == nil {
			s.invoked.Add(1)
		}
		if jobs[j].release != nil {
			jobs[j].release(time.Since(jobs[j].start))
		}
	})
	for j, item := range items {
		out[jobs[j].i] = item
	}
	return out
}
