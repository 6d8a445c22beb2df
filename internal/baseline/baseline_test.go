package baseline

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/simclock"
)

func newEngine(t *testing.T) (*Engine, *blockdev.Mem, *simclock.Sim) {
	t.Helper()
	dev := blockdev.MustMem(4096)
	clock := simclock.NewSim(simclock.Epoch)
	e, err := New(dev, clock)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e, dev, clock
}

func TestEngineCRUD(t *testing.T) {
	e, _, _ := newEngine(t)
	if err := e.CreateTable("user"); err != nil {
		t.Fatal(err)
	}
	id, err := e.Insert("user", "alice", map[string]string{"name": "Alice"},
		map[string]bool{"analytics": true}, 0)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	fields, err := e.Get(id, "analytics")
	if err != nil || fields["name"] != "Alice" {
		t.Fatalf("Get = %v, %v", fields, err)
	}
	if err := e.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get(id, "analytics"); !errors.Is(err, ErrNoRow) {
		t.Fatalf("Get after delete err = %v", err)
	}
}

func TestEngineConsentCheck(t *testing.T) {
	// The engine-level GDPR logic works as designed.
	e, _, clock := newEngine(t)
	_ = e.CreateTable("user")
	id, err := e.Insert("user", "bob", map[string]string{"name": "Bob"},
		map[string]bool{"analytics": false}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get(id, "analytics"); !errors.Is(err, ErrConsentDenied) {
		t.Fatalf("denied consent err = %v", err)
	}
	id2, _ := e.Insert("user", "bob", map[string]string{"name": "Bob"},
		map[string]bool{"analytics": true}, time.Hour)
	if _, err := e.Get(id2, "analytics"); err != nil {
		t.Fatalf("granted consent err = %v", err)
	}
	clock.Advance(2 * time.Hour)
	if _, err := e.Get(id2, "analytics"); !errors.Is(err, ErrConsentDenied) {
		t.Fatalf("expired TTL err = %v", err)
	}
}

func TestEngineErrors(t *testing.T) {
	e, _, _ := newEngine(t)
	if _, err := e.Insert("ghost", "s", nil, nil, 0); !errors.Is(err, ErrNoTable) {
		t.Fatalf("Insert ghost table err = %v", err)
	}
	if _, err := e.Get("nonsense", "p"); !errors.Is(err, ErrNoRow) {
		t.Fatalf("Get bad id err = %v", err)
	}
	if err := e.Delete("user/99"); !errors.Is(err, ErrNoRow) {
		t.Fatalf("Delete missing err = %v", err)
	}
}

func TestJournalLeakViolation(t *testing.T) {
	// The paper's §1 example (Fig. 2): the engine deletes a row, yet the
	// plaintext survives below it in the filesystem (journal/free space),
	// recoverable by scanning the raw device.
	e, dev, _ := newEngine(t)
	_ = e.CreateTable("patient")
	secret := "diagnosis=severe-condition-xyz"
	id, err := e.Insert("patient", "chiraz", map[string]string{"diagnosis": secret},
		map[string]bool{"care": true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(id); err != nil {
		t.Fatal(err)
	}
	// The engine's view: the row is gone.
	if _, err := e.Get(id, "care"); !errors.Is(err, ErrNoRow) {
		t.Fatalf("engine still sees the row: %v", err)
	}
	// The forensic view: the plaintext remains on the device.
	hits := blockdev.FindResidue(dev, []byte(secret))
	if len(hits) == 0 {
		t.Fatal("no residue found — the baseline should leak deleted data")
	}
}

func TestEraseSubjectLeavesResidue(t *testing.T) {
	e, dev, _ := newEngine(t)
	_ = e.CreateTable("user")
	for i := 0; i < 3; i++ {
		if _, err := e.Insert("user", "alice", map[string]string{"email": "alice@example.com"},
			map[string]bool{"ads": true}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Insert("user", "bob", map[string]string{"email": "bob@example.com"},
		map[string]bool{"ads": true}, 0); err != nil {
		t.Fatal(err)
	}
	n, err := e.EraseSubject("alice")
	if err != nil || n != 3 {
		t.Fatalf("EraseSubject = %d, %v", n, err)
	}
	// Bob intact, alice gone from the engine...
	if n, _ := e.EraseSubject("alice"); n != 0 {
		t.Fatal("second erase found rows")
	}
	// ...but her plaintext survives below.
	if hits := blockdev.FindResidue(dev, []byte("alice@example.com")); len(hits) == 0 {
		t.Fatal("no residue after subject erasure")
	}
}

func TestHeapUseAfterFree(t *testing.T) {
	// Process-centric memory (Fig. 2) lets a stale pointer read another
	// subject's data (Fig. 2's f2 accidentally accessing pd2).
	h := NewHeap(true)
	pd1 := h.Alloc([]byte("pd1:alice:salary=90k"))
	h.Free(pd1)
	// pd2 lands in the recycled cell.
	pd2 := h.Alloc([]byte("pd2:bob:hiv-status=positive"))
	_ = pd2
	leaked, err := h.DerefStale(pd1)
	if err != nil {
		t.Fatalf("unsafe DerefStale errored: %v", err)
	}
	if !strings.Contains(string(leaked), "bob") {
		t.Fatalf("stale read = %q, expected bob's data", leaked)
	}
	if h.UAFReads() != 1 {
		t.Fatalf("UAFReads = %d", h.UAFReads())
	}
}

func TestSafeHeapBlocksUAF(t *testing.T) {
	h := NewHeap(false)
	p := h.Alloc([]byte("pd"))
	h.Free(p)
	if _, err := h.DerefStale(p); !errors.Is(err, ErrDangling) {
		t.Fatalf("safe DerefStale err = %v", err)
	}
	if _, err := h.Deref(p); !errors.Is(err, ErrDangling) {
		t.Fatalf("safe Deref err = %v", err)
	}
	if h.UAFReads() != 0 {
		t.Fatalf("UAFReads = %d", h.UAFReads())
	}
}

func TestHeapNormalOps(t *testing.T) {
	h := NewHeap(true)
	p := h.Alloc([]byte("hello"))
	got, err := h.Deref(p)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Deref = %q, %v", got, err)
	}
	// Out-of-range pointers always error.
	if _, err := h.Deref(Ptr{idx: 999}); !errors.Is(err, ErrDangling) {
		t.Fatalf("oob Deref err = %v", err)
	}
	// Double free is a no-op.
	h.Free(p)
	h.Free(p)
	q := h.Alloc([]byte("new"))
	if q.idx != p.idx {
		t.Fatalf("freelist not reused: %d vs %d", q.idx, p.idx)
	}
}
