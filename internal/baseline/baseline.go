// Package baseline implements the architecture the paper positions itself
// against (Fig. 2): GDPR compliance implemented inside a userspace database
// engine (in the style of Shastri et al. and Schwarzkopf et al.), running on
// a general-purpose OS with a traditional journaled filesystem.
//
// The engine does everything right at its own level — it records consent per
// row, checks it before processing, honours TTLs, and deletes rows on
// erasure requests. The tests then demonstrate the paper's two §1
// criticisms:
//
//   - TestJournalLeakViolation: the filesystem below the engine "can take
//     actions that contradict" it — the journal and the freed blocks retain
//     plaintext images of rows the engine deleted, so the right to be
//     forgotten is violated one layer down.
//   - TestHeapUseAfterFree: the OS is process-centric — a process copies
//     rows into its heap (modelled by Heap), and a function holding a stale
//     pointer (a use-after-free, cf. the paper's MineSweeper citation) can
//     read another subject's data that was never consented to it.
//
// The same scenarios run against rgpdOS return zero violations, which is
// the architectural claim of the paper in executable form: rights
// TestEraseSubjectEndToEnd for the first; for the second, Go's memory
// safety (the Heap's safe mode, TestSafeHeapBlocksUAF) plus the DED's
// purpose-bounded view (ded TestUndeclaredReadFailsRun), which never puts
// an unconsented or undeclared field in reach of the function. Zeroizing
// what a function saw is not claimed: an in-process Go function shares the
// heap it could be scrubbed from.
package baseline

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/inode"
	"repro/internal/plainfs"
	"repro/internal/simclock"
)

// Sentinel errors.
var (
	// ErrNoTable reports an operation on an undeclared table.
	ErrNoTable = errors.New("baseline: no such table")
	// ErrNoRow reports an unknown row id.
	ErrNoRow = errors.New("baseline: no such row")
	// ErrConsentDenied reports the engine's own consent check failing.
	ErrConsentDenied = errors.New("baseline: consent denied")
	// ErrDangling reports a safe-mode dereference of a freed pointer.
	ErrDangling = errors.New("baseline: dangling pointer dereference")
)

// row is the on-disk JSON representation of one record — plaintext, like
// any conventional DB file format.
type row struct {
	Subject   string            `json:"subject"`
	Fields    map[string]string `json:"fields"`
	Consents  map[string]bool   `json:"consents"`
	CreatedAt time.Time         `json:"created_at"`
	TTL       time.Duration     `json:"ttl"`
}

// Engine is the GDPR-aware userspace DB engine of Fig. 2.
type Engine struct {
	fs    *plainfs.FS
	clock simclock.Clock

	mu     sync.Mutex
	tables map[string]bool
	seq    map[string]uint64
}

// New creates an engine over a freshly formatted plain filesystem.
func New(dev blockdev.Device, clock simclock.Clock) (*Engine, error) {
	if clock == nil {
		clock = simclock.Real{}
	}
	fs, err := plainfs.Format(dev, inode.Options{NInodes: 8192, JournalBlocks: 256, Clock: clock})
	if err != nil {
		return nil, fmt.Errorf("baseline: format: %w", err)
	}
	if err := fs.Mkdir("/db"); err != nil {
		return nil, fmt.Errorf("baseline: mkdir: %w", err)
	}
	return &Engine{
		fs:     fs,
		clock:  clock,
		tables: make(map[string]bool),
		seq:    make(map[string]uint64),
	}, nil
}

// CreateTable declares a table.
func (e *Engine) CreateTable(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tables[name] {
		return nil
	}
	if err := e.fs.Mkdir("/db/" + name); err != nil && !errors.Is(err, plainfs.ErrExists) {
		return err
	}
	e.tables[name] = true
	return nil
}

// rowPath builds the file path of a row id "table/n".
func rowPath(table string, n uint64) string {
	return "/db/" + table + "/" + strconv.FormatUint(n, 10) + ".json"
}

// Insert stores a row with its consent map and returns its id.
func (e *Engine) Insert(table, subject string, fields map[string]string, consents map[string]bool, ttl time.Duration) (string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.tables[table] {
		return "", fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	e.seq[table]++
	n := e.seq[table]
	r := row{
		Subject:   subject,
		Fields:    fields,
		Consents:  consents,
		CreatedAt: e.clock.Now(),
		TTL:       ttl,
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("baseline: marshal row: %w", err)
	}
	if err := e.fs.WriteFile(rowPath(table, n), raw); err != nil {
		return "", err
	}
	return table + "/" + strconv.FormatUint(n, 10), nil
}

// parseID splits "table/n".
func (e *Engine) parseID(id string) (string, uint64, error) {
	for i := len(id) - 1; i >= 0; i-- {
		if id[i] == '/' {
			n, err := strconv.ParseUint(id[i+1:], 10, 64)
			if err != nil {
				return "", 0, fmt.Errorf("%w: %q", ErrNoRow, id)
			}
			return id[:i], n, nil
		}
	}
	return "", 0, fmt.Errorf("%w: %q", ErrNoRow, id)
}

// load reads a row from disk.
func (e *Engine) load(id string) (*row, string, error) {
	table, n, err := e.parseID(id)
	if err != nil {
		return nil, "", err
	}
	path := rowPath(table, n)
	raw, err := e.fs.ReadFile(path)
	if errors.Is(err, plainfs.ErrNotFound) {
		return nil, "", fmt.Errorf("%w: %q", ErrNoRow, id)
	}
	if err != nil {
		return nil, "", err
	}
	var r row
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, "", fmt.Errorf("baseline: corrupt row %q: %w", id, err)
	}
	return &r, path, nil
}

// Get returns a row's fields after the engine-level consent check for
// purpose. This is the engine "doing GDPR right" at its own layer.
func (e *Engine) Get(id, purposeName string) (map[string]string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, _, err := e.load(id)
	if err != nil {
		return nil, err
	}
	if !r.Consents[purposeName] {
		return nil, fmt.Errorf("%w: %s on %s", ErrConsentDenied, purposeName, id)
	}
	if r.TTL > 0 && e.clock.Now().After(r.CreatedAt.Add(r.TTL)) {
		return nil, fmt.Errorf("%w: %s expired", ErrConsentDenied, id)
	}
	out := make(map[string]string, len(r.Fields))
	for k, v := range r.Fields {
		out[k] = v
	}
	return out, nil
}

// Delete removes a row: the engine's implementation of erasure. It removes
// the file — and believes the data is gone.
func (e *Engine) Delete(id string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, path, err := e.load(id)
	if err != nil {
		return err
	}
	return e.fs.Remove(path)
}

// EraseSubject deletes every row of a subject across all tables (the
// engine's right to be forgotten).
func (e *Engine) EraseSubject(subject string) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	deleted := 0
	for table := range e.tables {
		entries, err := e.fs.List("/db/" + table)
		if err != nil {
			return deleted, err
		}
		for _, ent := range entries {
			path := "/db/" + table + "/" + ent.Name
			raw, err := e.fs.ReadFile(path)
			if err != nil {
				return deleted, err
			}
			var r row
			if err := json.Unmarshal(raw, &r); err != nil {
				continue
			}
			if r.Subject != subject {
				continue
			}
			if err := e.fs.Remove(path); err != nil {
				return deleted, err
			}
			deleted++
		}
	}
	return deleted, nil
}

// --- process-centric heap with use-after-free semantics ---

// Ptr is a raw heap pointer: a cell index with no generation tag, exactly
// like a C pointer. Holding one after Free is the hazard.
type Ptr struct {
	idx int
}

// cell is one heap allocation slot.
type cell struct {
	data      []byte
	allocated bool
}

// Heap models a process heap. In unsafe mode (the baseline's reality),
// dereferencing a freed-and-reused pointer silently returns the *current*
// bytes of the cell — another allocation's data. In safe mode it returns
// ErrDangling, which is what a memory-safe runtime such as Go's gives you.
type Heap struct {
	unsafe bool

	mu       sync.Mutex
	cells    []cell
	freelist []int

	uafReads uint64
}

// NewHeap creates a heap; unsafe selects C-like UAF semantics.
func NewHeap(unsafe bool) *Heap {
	return &Heap{unsafe: unsafe}
}

// Alloc stores data in a (possibly recycled) cell.
func (h *Heap) Alloc(data []byte) Ptr {
	h.mu.Lock()
	defer h.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	if n := len(h.freelist); n > 0 {
		idx := h.freelist[n-1]
		h.freelist = h.freelist[:n-1]
		// Reuse without scrubbing: the new data replaces the old, and any
		// stale pointer to this cell now sees the new allocation.
		h.cells[idx] = cell{data: cp, allocated: true}
		return Ptr{idx: idx}
	}
	h.cells = append(h.cells, cell{data: cp, allocated: true})
	return Ptr{idx: len(h.cells) - 1}
}

// Free releases the cell. The bytes are NOT zeroed (like free(3)).
func (h *Heap) Free(p Ptr) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p.idx < 0 || p.idx >= len(h.cells) || !h.cells[p.idx].allocated {
		return
	}
	h.cells[p.idx].allocated = false
	h.freelist = append(h.freelist, p.idx)
}

// Deref reads through the pointer. Unsafe mode: stale pointers read
// whatever occupies the cell now (counted as a UAF read when the cell was
// recycled). Safe mode: stale pointers error.
func (h *Heap) Deref(p Ptr) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p.idx < 0 || p.idx >= len(h.cells) {
		return nil, fmt.Errorf("%w: out of range", ErrDangling)
	}
	c := h.cells[p.idx]
	out := make([]byte, len(c.data))
	copy(out, c.data)
	if !c.allocated {
		// Freed, not yet reused: unsafe mode reads the stale bytes.
		if h.unsafe {
			return out, nil
		}
		return nil, fmt.Errorf("%w: freed cell %d", ErrDangling, p.idx)
	}
	return out, nil
}

// DerefStale is Deref for a pointer the caller knows was freed; in unsafe
// mode a recycled cell yields the NEW occupant's bytes, and the read is
// counted as a use-after-free violation.
func (h *Heap) DerefStale(p Ptr) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p.idx < 0 || p.idx >= len(h.cells) {
		return nil, fmt.Errorf("%w: out of range", ErrDangling)
	}
	c := h.cells[p.idx]
	if !h.unsafe {
		return nil, fmt.Errorf("%w: freed cell %d", ErrDangling, p.idx)
	}
	h.uafReads++
	out := make([]byte, len(c.data))
	copy(out, c.data)
	return out, nil
}

// UAFReads reports how many stale dereferences happened.
func (h *Heap) UAFReads() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.uafReads
}
