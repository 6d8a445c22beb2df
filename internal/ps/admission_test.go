package ps

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/purpose"
)

// TestInvokeBatchQueueSaturationStress is the -race saturation soak for the
// admission gate: N producer goroutines hammer InvokeBatch far past the
// purpose's burst K, on a clock that never refills it. Every offered
// request must come back as exactly one of accepted or rejected (no silent
// drops), exactly K are accepted and keep the full invoke semantics
// (results, Invocations), and draining the load must leave no goroutine
// behind.
func TestInvokeBatchQueueSaturationStress(t *testing.T) {
	e := newEnv(t, nil)
	subjects := e.seedSubjects(t, 16)
	if err := e.ps.Register(decl3(), ageImpl(), false); err != nil {
		t.Fatal(err)
	}
	const capK = 6
	e.ps.ConfigureAdmission(admission.New(admission.Options{Clock: e.clock}))
	if err := e.ps.SetRateLimit("purpose3", 1, capK); err != nil {
		t.Fatal(err)
	}

	beforeGoroutines := runtime.NumGoroutine()
	const (
		producers = 8
		rounds    = 4
	)
	var accepted, rejected atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			reqs := make([]InvokeRequest, len(subjects))
			for i, s := range subjects {
				reqs[i] = InvokeRequest{Processing: "purpose3", TypeName: "user", SubjectFilter: s}
			}
			for round := 0; round < rounds; round++ {
				out := e.ps.InvokeBatch(reqs, 4)
				if len(out) != len(reqs) {
					errCh <- fmt.Errorf("producer %d: %d outcomes for %d requests", p, len(out), len(reqs))
					return
				}
				for i, item := range out {
					switch {
					case item.Rejected:
						if !errors.Is(item.Err, admission.ErrOverloaded) {
							errCh <- fmt.Errorf("producer %d req %d: rejected with %v, want ErrOverloaded", p, i, item.Err)
							return
						}
						if item.Res != nil {
							errCh <- fmt.Errorf("producer %d req %d: rejected but has a result", p, i)
							return
						}
						rejected.Add(1)
					case item.Err != nil:
						errCh <- fmt.Errorf("producer %d req %d: %w", p, i, item.Err)
						return
					default:
						if item.Res.Processed != 1 {
							errCh <- fmt.Errorf("producer %d req %d: processed %d, want 1", p, i, item.Res.Processed)
							return
						}
						accepted.Add(1)
					}
				}
			}
		}(p)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	offered := int64(producers * rounds * len(subjects))
	if got := accepted.Load() + rejected.Load(); got != offered {
		t.Fatalf("accepted %d + rejected %d = %d, want offered %d (a request was dropped or double-counted)",
			accepted.Load(), rejected.Load(), got, offered)
	}
	if accepted.Load() != capK {
		t.Fatalf("accepted %d, want the burst %d", accepted.Load(), capK)
	}

	// Accepted-set semantics: every accepted run counted.
	if got := e.ps.Invocations(); got != uint64(accepted.Load()) {
		t.Fatalf("Invocations = %d, want accepted %d", got, accepted.Load())
	}

	// The ps.Stats snapshot agrees, and the queue fully drained.
	st := e.ps.Stats()
	if st.Admission.Admitted != uint64(accepted.Load()) || st.Admission.Completed != uint64(accepted.Load()) {
		t.Fatalf("admission stats admitted/completed = %d/%d, want %d", st.Admission.Admitted, st.Admission.Completed, accepted.Load())
	}
	if st.Admission.Rejected() != uint64(rejected.Load()) || st.Admission.RejectedRate != uint64(rejected.Load()) {
		t.Fatalf("admission stats rejected = %+v, want %d rate rejections", st.Admission, rejected.Load())
	}
	if st.Admission.Depth != 0 {
		t.Fatalf("depth after drain = %d, want 0", st.Admission.Depth)
	}

	// No goroutine leak after drain: the worker pools and admission gate
	// must not strand anything. Settle briefly — the runtime reaps worker
	// goroutines asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= beforeGoroutines+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after drain = %d, was %d before load", runtime.NumGoroutine(), beforeGoroutines)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestInvokeAdmissionApprovalFlow checks that the sysadmin approval state
// machine composes with admission: a pending processing stays uninvocable
// (ErrNotActive, which must NOT leave the gate's depth raised), and after
// approval the same request is admitted and runs.
func TestInvokeAdmissionApprovalFlow(t *testing.T) {
	e := newEnv(t, nil)
	e.seedSubjects(t, 1)
	e.ps.ConfigureAdmission(admission.New(admission.Options{Clock: e.clock}))

	// Declared reads beyond the purpose: parked pending approval.
	decl := &purpose.Decl{Name: "purpose3", Description: "age", Basis: purpose.BasisConsent,
		Reads: []string{"user.year_of_birthdate"}}
	impl := ageImpl()
	impl.DeclaredReads = []string{"user.year_of_birthdate", "user.name"}
	if err := e.ps.Register(decl, impl, false); !errors.Is(err, ErrPendingApproval) {
		t.Fatalf("register err = %v, want ErrPendingApproval", err)
	}
	req := InvokeRequest{Processing: "purpose3", TypeName: "user"}
	for i := 0; i < 3; i++ {
		if _, err := e.ps.Invoke(req); !errors.Is(err, ErrNotActive) {
			t.Fatalf("invoke %d of pending processing err = %v, want ErrNotActive", i, err)
		}
	}
	// Each failed attempt released its slot: depth is 0, not pinned at 1.
	if st := e.ps.Stats(); st.Admission.Depth != 0 {
		t.Fatalf("depth after failed invokes = %d, want 0", st.Admission.Depth)
	}
	alerts := e.ps.PendingAlerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %+v", alerts)
	}
	if err := e.ps.Approve(alerts[0].ID, "root"); err != nil {
		t.Fatal(err)
	}
	res, err := e.ps.Invoke(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != 1 {
		t.Fatalf("processed = %d", res.Processed)
	}
}

// TestSetRateLimitKeyedByRegistry checks the registry coupling: limits can
// only target registered purposes, and an installed limit sheds Invoke
// traffic with the typed error.
func TestSetRateLimitKeyedByRegistry(t *testing.T) {
	e := newEnv(t, nil)
	e.seedSubjects(t, 1)
	if err := e.ps.Register(decl3(), ageImpl(), false); err != nil {
		t.Fatal(err)
	}
	if err := e.ps.SetRateLimit("purpose3", 1, 1); err == nil {
		t.Fatal("SetRateLimit without a controller succeeded")
	}
	e.ps.ConfigureAdmission(admission.New(admission.Options{Clock: e.clock}))
	if err := e.ps.SetRateLimit("ghost", 1, 1); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("unknown purpose err = %v, want ErrNotRegistered", err)
	}
	if err := e.ps.SetRateLimit("purpose3", 1, 1); err != nil {
		t.Fatal(err)
	}
	req := InvokeRequest{Processing: "purpose3", TypeName: "user"}
	if _, err := e.ps.Invoke(req); err != nil {
		t.Fatalf("burst invoke: %v", err)
	}
	if _, err := e.ps.Invoke(req); !errors.Is(err, admission.ErrRateLimited) {
		t.Fatalf("over-rate invoke err = %v, want ErrRateLimited", err)
	}
	e.clock.Advance(time.Second)
	if _, err := e.ps.Invoke(req); err != nil {
		t.Fatalf("post-refill invoke: %v", err)
	}
	st := e.ps.Stats()
	if st.Admission.RejectedRate != 1 {
		t.Fatalf("RejectedRate = %d, want 1", st.Admission.RejectedRate)
	}
}
