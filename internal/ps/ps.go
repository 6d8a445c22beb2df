// Package ps implements the Processing Store, the second component of
// rgpdOS and its only entry point (§2): "Its public interface consists of
// two functions: ps_register and ps_invoke."
//
// Register enforces the paper's checks: a function with no specified
// purpose is rejected outright; a function whose declared accesses do not
// match its purpose raises an alert that requires explicit sysadmin
// approval before the processing becomes invocable. Invoke is the only way
// to run a processing: it instantiates a DED (enforcement rules 1 and 2 —
// the PS alone holds stored processings and alone mints invocations), and
// after the run it re-checks the purpose against the *observed* field
// accesses, raising a dynamic alert on divergence (the runtime half of the
// §3(4) purpose-matching problem).
package ps

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
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
	// ErrMaintenanceReserved reports a maintenance invoke of a
	// non-builtin processing.
	ErrMaintenanceReserved = errors.New("ps: maintenance mode is reserved for built-in processings")
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

// Alert is a purpose-mismatch report requiring sysadmin attention.
type Alert struct {
	ID         uint64
	Processing string
	// Phase is "register" (static check) or "dynamic" (post-run check).
	Phase    string
	Report   purpose.MatchReport
	Resolved bool
	Approved bool
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
	invoked  uint64
	// defaultWorkers is the executor pool size InvokeBatch falls back to
	// when the caller passes workers <= 0; set by the kernel at boot.
	defaultWorkers int
	// adm is the admission controller gating non-maintenance invokes;
	// nil means no admission control (everything is admitted, nothing is
	// counted). Set once at boot via ConfigureAdmission.
	adm *admission.Controller
}

// Stats is a snapshot of Processing Store load counters: how many
// invocations ran, and — when an admission controller is configured — the
// queue depth, rejection and latency counters of the admission gate.
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
// InvokeBatch. Admission applies at submission time to non-maintenance
// requests; maintenance invocations (rights execution — a legal
// obligation) are never shed. Passing nil removes admission control.
//
// core.Boot installs a core.System's controller with this setter; at
// runtime System.ApplyTuning (core.Tuning.AdmissionMaxPending) is the door,
// since swapping the controller would discard its counters.
func (s *Store) ConfigureAdmission(c *admission.Controller) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.adm = c
}

// Admission returns the installed admission controller (nil when
// admission control is off) — the handle the core tuning API adjusts
// bounds and rate limits through.
func (s *Store) Admission() *admission.Controller {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.adm
}

// SetRateLimit installs a token-bucket rate limit (ratePerSec, burst) for
// one purpose, keyed by the purpose registry: the purpose must name a
// registered processing, so limits cannot silently target a typo. A rate
// <= 0 removes the limit. Requires a configured admission controller.
//
// For a store owned by a core.System, System.ApplyTuning
// (core.Tuning.RateLimits) is the door: it calls this setter.
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
	s.mu.Lock()
	st := Stats{Invocations: s.invoked}
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
// applies" (no controller, or a maintenance request).
func (s *Store) admit(req InvokeRequest) (func(time.Duration), error) {
	s.mu.Lock()
	c := s.adm
	s.mu.Unlock()
	if c == nil || req.Maintenance {
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
			Phase:      "register",
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
// approval, as the paper requires).
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
			p.State = StateActive
		} else {
			p.State = StateRejected
		}
	}
	outcome := "rejected"
	if approve {
		outcome = "approved"
	}
	s.log.Append(audit.KindAlert, alert.Processing, "", "", outcome, "sysadmin="+sysadmin)
	return nil
}

// Alerts returns copies of all alerts.
func (s *Store) Alerts() []Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Alert, 0, len(s.alerts))
	for _, a := range s.alerts {
		out = append(out, *a)
	}
	return out
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

// Invocations reports how many ps_invoke calls ran.
func (s *Store) Invocations() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.invoked
}

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
	// Maintenance bypasses consent for rights execution; reserved for
	// built-in processings.
	Maintenance bool
}

// prepare validates an invoke request against the registry, runs the
// optional collection step, and lowers the request to a DED invocation. It
// is the shared front half of Invoke and InvokeBatch.
func (s *Store) prepare(req InvokeRequest) (*Processing, ded.Invocation, error) {
	s.mu.Lock()
	p, ok := s.procs[req.Processing]
	if !ok {
		s.mu.Unlock()
		return nil, ded.Invocation{}, fmt.Errorf("%w: %q", ErrNotRegistered, req.Processing)
	}
	if p.State != StateActive {
		s.mu.Unlock()
		return nil, ded.Invocation{}, fmt.Errorf("%w: %q is %v", ErrNotActive, req.Processing, p.State)
	}
	if req.Maintenance && !p.Builtin {
		s.mu.Unlock()
		return nil, ded.Invocation{}, fmt.Errorf("%w: %q", ErrMaintenanceReserved, req.Processing)
	}
	acquire := s.acquire
	s.mu.Unlock()

	if req.InitCollect {
		if acquire == nil {
			return nil, ded.Invocation{}, ErrNoCollector
		}
		ty := req.TypeName
		if ty == "" && p.Decl.Produces != "" {
			ty = p.Decl.Produces
		}
		if _, err := acquire(ty, req.CollectMethod, req.CollectSubjects); err != nil {
			return nil, ded.Invocation{}, fmt.Errorf("ps: collection before invoke: %w", err)
		}
	}
	return p, ded.Invocation{
		Purpose:       p.Decl,
		Impl:          p.Impl,
		PDRef:         req.PDRef,
		TypeName:      req.TypeName,
		SubjectFilter: req.SubjectFilter,
		Params:        req.Params,
		Maintenance:   req.Maintenance,
	}, nil
}

// finish is the shared back half of an invocation: it counts the run and
// re-checks the purpose against the observed field accesses, raising a
// dynamic alert on divergence.
func (s *Store) finish(p *Processing, res *ded.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.invoked++
	// Dynamic purpose check: observed accesses vs declaration.
	if report := purpose.Match(p.Decl, res.DynamicReads); !report.OK {
		s.alertSeq++
		s.alerts = append(s.alerts, &Alert{
			ID:         s.alertSeq,
			Processing: p.Decl.Name,
			Phase:      "dynamic",
			Report:     report,
		})
		s.log.Append(audit.KindAlert, p.Decl.Name, "", "", "raised",
			"dynamic undeclared reads: "+strings.Join(report.Undeclared, ","))
	}
}

// Invoke is ps_invoke. When an admission controller is configured the
// request passes the admission gate first (queue bound, then the
// purpose's token bucket); a rejection returns an error wrapping
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
	p, inv, err := s.prepare(req)
	if err != nil {
		return nil, err
	}
	res, err := s.d.Run(inv)
	if err != nil {
		return nil, err
	}
	s.finish(p, res)
	return res, nil
}

// InvokeBatch is the concurrent form of ps_invoke: the requests pass the
// admission gate and are validated and collection-initialized one by one,
// in request order (approval state and maintenance rules apply exactly as
// in Invoke), then the admitted invocations run on a worker pool through
// the DED. Outcomes keep request order and are per-request — one failure
// never aborts its siblings, and an admission rejection is a typed outcome
// (Rejected set, Err wrapping admission.ErrOverloaded), never a silent
// drop. Every successful run still passes the dynamic purpose check and
// counts toward Invocations.
//
// The whole batch is admitted up front: a batch is a burst arrival, so a
// batch larger than the admission queue's free capacity sheds its tail.
// Each admitted request occupies queue depth from submission until its
// invocation completes.
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
		p       *Processing
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
		p, inv, err := s.prepare(req)
		if err != nil {
			if release != nil {
				release(time.Since(start))
			}
			out[i].Err = err
			continue
		}
		jobs = append(jobs, job{i: i, p: p, inv: inv, release: release, start: start})
	}
	if len(jobs) == 0 {
		return out
	}
	// The DED executor runs the admitted invocations; the completion hook
	// releases each request's admission slot the moment it finishes, so
	// queue depth stays truthful. The dynamic purpose check and the
	// invocation count run afterwards in request order, so alert IDs and
	// audit entries for a batch stay deterministic exactly as in the
	// serial path.
	invs := make([]ded.Invocation, len(jobs))
	for j, jb := range jobs {
		invs[j] = jb.inv
	}
	items := s.d.RunBatchFunc(invs, workers, func(j int, _ ded.BatchItem) {
		if jobs[j].release != nil {
			jobs[j].release(time.Since(jobs[j].start))
		}
	})
	for j, item := range items {
		out[jobs[j].i] = item
		if item.Err == nil {
			s.finish(jobs[j].p, item.Res)
		}
	}
	return out
}

// InvokeAsync is ps_invoke detached from the caller: the invocation runs on
// its own goroutine and the single outcome is delivered on the returned
// channel, which is closed afterwards.
func (s *Store) InvokeAsync(req InvokeRequest) <-chan ded.BatchItem {
	ch := make(chan ded.BatchItem, 1)
	go func() {
		defer close(ch)
		res, err := s.Invoke(req)
		ch <- ded.BatchItem{Res: res, Err: err}
	}()
	return ch
}
