package ps

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/audit"
	"repro/internal/dbfs"
	"repro/internal/ded"
)

// seedSubjects inserts one user record per subject and returns the subject
// IDs.
func (e *env) seedSubjects(t *testing.T, n int) []string {
	t.Helper()
	if err := e.store.CreateType(e.tok, userSchema()); err != nil {
		t.Fatal(err)
	}
	subjects := make([]string, n)
	for i := range subjects {
		subjects[i] = "subj-" + strconv.Itoa(i)
		if _, err := e.store.Insert(e.tok, "user", subjects[i], dbfs.Record{
			"name": dbfs.S("User " + strconv.Itoa(i)), "year_of_birthdate": dbfs.I(int64(1960 + i%40)),
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return subjects
}

func TestInvokeBatchDistinctSubjects(t *testing.T) {
	e := newEnv(t, nil)
	subjects := e.seedSubjects(t, 24)
	if err := e.ps.Register(decl3(), ageImpl(), false); err != nil {
		t.Fatal(err)
	}
	reqs := make([]InvokeRequest, len(subjects))
	for i, s := range subjects {
		reqs[i] = InvokeRequest{Processing: "purpose3", TypeName: "user", SubjectFilter: s}
	}
	out := e.ps.InvokeBatch(reqs, 8)
	if len(out) != len(reqs) {
		t.Fatalf("outcomes = %d, want %d", len(out), len(reqs))
	}
	for i, item := range out {
		if item.Err != nil {
			t.Fatalf("req %d: %v", i, item.Err)
		}
		if item.Res.Processed != 1 {
			t.Fatalf("req %d: processed %d, want 1", i, item.Res.Processed)
		}
	}
	if got := e.ps.Invocations(); got != uint64(len(reqs)) {
		t.Fatalf("Invocations = %d, want %d", got, len(reqs))
	}
}

// TestInvokeBatchPerRequestFailure mixes valid requests with an unknown
// processing: outcomes stay positional and the failure never aborts
// siblings.
func TestInvokeBatchPerRequestFailure(t *testing.T) {
	e := newEnv(t, nil)
	subjects := e.seedSubjects(t, 3)
	if err := e.ps.Register(decl3(), ageImpl(), false); err != nil {
		t.Fatal(err)
	}
	reqs := []InvokeRequest{
		{Processing: "purpose3", TypeName: "user", SubjectFilter: subjects[0]},
		{Processing: "ghost", TypeName: "user"},
		{Processing: "purpose3", TypeName: "user", SubjectFilter: subjects[2]},
	}
	out := e.ps.InvokeBatch(reqs, 4)
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("valid requests failed: %v / %v", out[0].Err, out[2].Err)
	}
	if !errors.Is(out[1].Err, ErrNotRegistered) {
		t.Fatalf("ghost err = %v", out[1].Err)
	}
	if out[1].Res != nil {
		t.Fatalf("ghost has a result: %+v", out[1].Res)
	}
	if got := e.ps.Invocations(); got != 2 {
		t.Fatalf("Invocations = %d, want 2", got)
	}
}

// TestInvokeBatchUndeclaredRead checks that an undeclared probe fails
// batched invocations exactly as serial ones: every item gets
// ErrUndeclaredRead and the audit log one blocked alert per item.
func TestInvokeBatchUndeclaredRead(t *testing.T) {
	e := newEnv(t, nil)
	subjects := e.seedSubjects(t, 4)
	impl := ageImpl()
	inner := impl.Fn
	impl.Fn = func(c *ded.Ctx) (ded.Output, error) {
		c.Has("name") // undeclared probe: fails the run
		return inner(c)
	}
	if err := e.ps.Register(decl3(), impl, false); err != nil {
		t.Fatal(err)
	}
	reqs := make([]InvokeRequest, len(subjects))
	for i, s := range subjects {
		reqs[i] = InvokeRequest{Processing: "purpose3", TypeName: "user", SubjectFilter: s}
	}
	for i, item := range e.ps.InvokeBatch(reqs, 4) {
		if !errors.Is(item.Err, ded.ErrUndeclaredRead) || item.Res != nil {
			t.Fatalf("req %d: %+v, want ErrUndeclaredRead and no result", i, item)
		}
	}
	if n := e.log.CountByKind()[audit.KindAlert]; n != len(reqs) {
		t.Fatalf("audit alerts = %d, want %d", n, len(reqs))
	}
	if n := e.ps.Invocations(); n != 0 {
		t.Fatalf("Invocations = %d, want 0", n)
	}
}

// TestInvokeBatchStress hammers InvokeBatch from several client goroutines
// over both disjoint and overlapping subjects; run with -race this is the
// end-to-end concurrency soak for the PD hot path (ps → ded → dbfs).
func TestInvokeBatchStress(t *testing.T) {
	e := newEnv(t, nil)
	subjects := e.seedSubjects(t, 16)
	if err := e.ps.Register(decl3(), ageImpl(), false); err != nil {
		t.Fatal(err)
	}
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each client batches over ALL subjects, so every subject is
			// processed by every client concurrently (overlap), while
			// within one batch the subjects are disjoint.
			reqs := make([]InvokeRequest, len(subjects))
			for i, s := range subjects {
				reqs[i] = InvokeRequest{Processing: "purpose3", TypeName: "user", SubjectFilter: s}
			}
			for round := 0; round < 3; round++ {
				for i, item := range e.ps.InvokeBatch(reqs, 8) {
					if item.Err != nil {
						errs <- fmt.Errorf("client %d round %d req %d: %w", c, round, i, item.Err)
						return
					}
					if item.Res.Processed != 1 {
						errs <- fmt.Errorf("client %d round %d req %d: processed %d", c, round, i, item.Res.Processed)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if want := uint64(clients * 3 * len(subjects)); e.ps.Invocations() != want {
		t.Errorf("Invocations = %d, want %d", e.ps.Invocations(), want)
	}
}
