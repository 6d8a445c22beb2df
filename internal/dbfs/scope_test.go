package dbfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/cryptoshred"
	"repro/internal/inode"
	"repro/internal/lsm"
	"repro/internal/membrane"
	"repro/internal/simclock"
)

// TestOpsCommitOneTxn pins the journal cost of every record operation: one
// transaction each, two at most for the insert that first touches a subject
// (first touch, then the record). Before the operation scope these were
// 15 / 4 / 2 / 2 / 12 and 27.
func TestOpsCommitOneTxn(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	txns := func(fn func() error) uint64 {
		t.Helper()
		before := e.store.JournalStats().TxnsCommitted
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		return e.store.JournalStats().TxnsCommitted - before
	}
	// Warm-up: the first insert of a type also leases its sequence range.
	first, err := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var second string
	for _, c := range []struct {
		name string
		max  uint64
		op   func() error
	}{
		{"Insert (first touch)", 2, func() error {
			_, err := e.store.Insert(e.tok, "user", "bob", aliceRecord(), nil)
			return err
		}},
		{"Insert (known subject)", 1, func() (err error) {
			second, err = e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
			return err
		}},
		{"Update", 1, func() error {
			rec := aliceRecord()
			rec["name"] = S("Alice M.")
			return e.store.Update(e.tok, first, rec)
		}},
		{"MutateMembrane", 1, func() error {
			_, err := e.store.MutateMembrane(e.tok, first, func(m *membrane.Membrane) error {
				m.WithdrawConsent("purpose1")
				return nil
			})
			return err
		}},
		{"Erase", 1, func() error {
			_, err := e.store.Erase(e.tok, second)
			return err
		}},
		{"Delete", 1, func() error { return e.store.Delete(e.tok, first) }},
	} {
		if n := txns(c.op); n == 0 || n > c.max {
			t.Errorf("%s committed %d txns, want 1..%d", c.name, n, c.max)
		}
	}
	if _, err := e.fs.Check(); err != nil {
		t.Fatal(err)
	}
}

// crashEnv is a DBFS whose device can be cut: the filesystem (and its
// write-back buffer cache) sits on a blockdev.PowerCut over mem, and a
// "reboot" mounts a fresh filesystem from mem's bytes.
type crashEnv struct {
	mem   *blockdev.Mem
	cut   *blockdev.PowerCut
	fs    *inode.FS
	store *Store
	guard *lsm.Guard
	vault *cryptoshred.Vault
	clock *simclock.Sim
	tok   *lsm.Token
}

var (
	crashAuthOnce sync.Once
	crashAuth     *cryptoshred.Authority
)

func newCrashEnv(t *testing.T) *crashEnv {
	t.Helper()
	crashAuthOnce.Do(func() {
		var err error
		if crashAuth, err = cryptoshred.NewAuthority(1024); err != nil {
			t.Fatalf("NewAuthority: %v", err)
		}
	})
	e := &crashEnv{
		mem:   blockdev.MustMem(2048),
		guard: lsm.NewGuard(),
		vault: cryptoshred.NewVault(crashAuth.PublicKey()),
		clock: simclock.NewSim(simclock.Epoch),
	}
	e.cut = blockdev.NewPowerCut(e.mem)
	e.tok = e.guard.Mint("ded", lsm.CapDBFS)
	var err error
	if e.fs, err = inode.Format(e.cut, inode.Options{NInodes: 256, JournalBlocks: 64, Clock: e.clock}); err != nil {
		t.Fatalf("inode.Format: %v", err)
	}
	if e.store, err = Create([]*inode.FS{e.fs}, e.guard, e.vault, e.clock); err != nil {
		t.Fatalf("dbfs.Create: %v", err)
	}
	if err := e.store.CreateType(e.tok, userSchema()); err != nil {
		t.Fatalf("CreateType: %v", err)
	}
	return e
}

// reboot mounts what the raw device holds — the buffer cache's dirty blocks
// and everything past the cut are gone — and reopens DBFS on it, after the
// fsck walk.
func (e *crashEnv) reboot(t *testing.T) (*Store, inode.CheckReport) {
	t.Helper()
	fs, err := inode.Mount(e.mem, e.clock)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	rep, err := fs.Check()
	if err != nil {
		t.Fatalf("fsck after the cut: %v", err)
	}
	lookupsMatchDisk(t, fs)
	s, err := Open([]*inode.FS{fs}, e.guard, e.vault, e.clock)
	if err != nil {
		t.Fatalf("dbfs.Open after the cut: %v", err)
	}
	return s, rep
}

// lookupsMatchDisk walks every tree from the root, decoding each payload
// straight from its bytes, and demands that Lookup resolve every entry to
// the inode the disk names. The walk builds each tree's resident index, so
// a second Check then compares every index with its payload.
func lookupsMatchDisk(t *testing.T, fs *inode.FS) {
	t.Helper()
	seen := map[inode.Ino]bool{inode.RootIno: true}
	for queue := []inode.Ino{inode.RootIno}; len(queue) > 0; queue = queue[1:] {
		tree := queue[0]
		info, err := fs.Stat(tree)
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode != inode.ModeTree {
			continue
		}
		buf := make([]byte, info.Size)
		if _, err := fs.ReadAt(tree, 0, buf); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(buf); {
			n := int(binary.LittleEndian.Uint16(buf[off:]))
			name := string(buf[off+2 : off+2+n])
			want := inode.Ino(binary.LittleEndian.Uint64(buf[off+2+n:]))
			off += 2 + n + 8
			if got, err := fs.Lookup(tree, name); err != nil || got != want {
				t.Fatalf("Lookup(%d, %q) = %d, %v; the disk names %d", tree, name, got, err, want)
			}
			if !seen[want] {
				seen[want] = true
				queue = append(queue, want)
			}
		}
	}
	if _, err := fs.Check(); err != nil {
		t.Fatalf("fsck over the built indexes: %v", err)
	}
}

// listed reports whether pdid shows in the subject listing and in the type
// listing, failing the test if the two disagree.
func listed(t *testing.T, s *Store, tok *lsm.Token, pdid string) bool {
	t.Helper()
	typeName, subject, _, err := SplitPDID(pdid)
	if err != nil {
		t.Fatal(err)
	}
	in := func(list []string, err error) bool {
		if err != nil {
			t.Fatal(err)
		}
		i := sort.SearchStrings(list, pdid)
		return i < len(list) && list[i] == pdid
	}
	bySubject := in(s.ListBySubject(tok, subject))
	byType := in(s.ListByType(tok, typeName))
	if bySubject != byType {
		t.Fatalf("%s: ListBySubject says %v, ListByType says %v", pdid, bySubject, byType)
	}
	return bySubject
}

// crashCase is one operation put under the cut. setup prepares a fresh
// environment and returns the operation plus a probe that, after the
// reboot, names the state the operation's record is in: "old", "new", or a
// description of a torn state (which fails the test). inodes is how the
// live-inode count must have moved when the state is "new"; when it is
// "old" the count must not have moved, except by firstTouch — a subject's
// first insert is two transactions, and the first (the subject's empty
// trees, linked into both major trees) may land alone.
type crashCase struct {
	name       string
	inodes     int
	firstTouch int
	setup      func(t *testing.T, e *crashEnv) (op func() error, probe func(t *testing.T, s *Store) string)
}

func recordV(n int) Record {
	return Record{
		"name":              S(fmt.Sprintf("name-v%d", n)),
		"pwd":               S(fmt.Sprintf("pwd-v%d", n)),
		"year_of_birthdate": I(int64(1990 + n)),
	}
}

// recordState names which version of recordV a stored record holds.
// "shredded" is a complete record whose keys are gone: an insert that was
// told its commit failed shreds the keys it minted, even when the cut fell
// after the commit record and the reboot replays the insert. (The vault is
// process memory here; making it crash-consistent is ROADMAP item 4.)
func recordState(t *testing.T, s *Store, tok *lsm.Token, pdid string) string {
	t.Helper()
	rec, err := s.GetRecord(tok, pdid)
	if errors.Is(err, cryptoshred.ErrKeyDestroyed) {
		if raw, rerr := s.RawCiphertext(tok, pdid); rerr == nil && len(raw) > 0 {
			return "shredded"
		}
	}
	if err != nil {
		return "unreadable: " + err.Error()
	}
	for n, state := range map[int]string{1: "old", 2: "new"} {
		want := recordV(n)
		if rec["name"].Equal(want["name"]) && rec["pwd"].Equal(want["pwd"]) &&
			rec["year_of_birthdate"].Equal(want["year_of_birthdate"]) {
			return state
		}
	}
	return fmt.Sprintf("mixed record %v", rec)
}

// insertCase builds the two insert cases: the probe wants the record absent
// from both listings, or listed in both and fully readable with a decodable
// membrane.
func insertCase(name, subject string, inodes, firstTouch int) crashCase {
	return crashCase{name: name, inodes: inodes, firstTouch: firstTouch, setup: func(t *testing.T, e *crashEnv) (func() error, func(*testing.T, *Store) string) {
		// A known subject, and the type's sequence lease already taken.
		if _, err := e.store.Insert(e.tok, "user", "alice", recordV(1), nil); err != nil {
			t.Fatal(err)
		}
		pdid := PDID("user", subject, 2)
		op := func() error {
			got, err := e.store.Insert(e.tok, "user", subject, recordV(2), nil)
			if err == nil && got != pdid {
				t.Fatalf("inserted %s, expected %s", got, pdid)
			}
			return err
		}
		return op, func(t *testing.T, s *Store) string {
			if !listed(t, s, e.tok, pdid) {
				return "old"
			}
			if m, err := s.GetMembrane(e.tok, pdid); err != nil || m.PDID != pdid {
				return fmt.Sprintf("listed without a decodable membrane: %v", err)
			}
			if st := recordState(t, s, e.tok, pdid); st != "shredded" {
				return st
			}
			return "new"
		}
	}}
}

// rewriteCase builds the cases that rewrite an existing record in place.
func rewriteCase(name string, run func(e *crashEnv, pdid string) error, probe func(t *testing.T, e *crashEnv, s *Store, pdid string) string) crashCase {
	return crashCase{name: name, setup: func(t *testing.T, e *crashEnv) (func() error, func(*testing.T, *Store) string) {
		pdid, err := e.store.Insert(e.tok, "user", "alice", recordV(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		return func() error { return run(e, pdid) }, func(t *testing.T, s *Store) string {
			if !listed(t, s, e.tok, pdid) {
				return "record vanished"
			}
			return probe(t, e, s, pdid)
		}
	}}
}

// membraneState names a stored membrane "old" or "new" by the version it
// carries; undecodable bytes are a torn state.
func membraneState(newer func(*membrane.Membrane) bool) func(*testing.T, *crashEnv, *Store, string) string {
	return func(t *testing.T, e *crashEnv, s *Store, pdid string) string {
		m, err := s.GetMembrane(e.tok, pdid)
		if err != nil {
			return "undecodable membrane: " + err.Error()
		}
		if newer(m) {
			return "new"
		}
		return "old"
	}
}

var crashCases = []crashCase{
	insertCase("Insert", "alice", 3, 0),
	insertCase("InsertFirstTouch", "bob", 5, 2),
	rewriteCase("Update",
		func(e *crashEnv, pdid string) error { return e.store.Update(e.tok, pdid, recordV(2)) },
		func(t *testing.T, e *crashEnv, s *Store, pdid string) string { return recordState(t, s, e.tok, pdid) }),
	rewriteCase("MutateMembrane",
		func(e *crashEnv, pdid string) error {
			_, err := e.store.MutateMembrane(e.tok, pdid, func(m *membrane.Membrane) error {
				m.WithdrawConsent("purpose1")
				return nil
			})
			return err
		},
		membraneState(func(m *membrane.Membrane) bool { return m.Consents["purpose1"].Kind == membrane.GrantNone })),
	rewriteCase("Erase",
		func(e *crashEnv, pdid string) error { _, err := e.store.Erase(e.tok, pdid); return err },
		membraneState(func(m *membrane.Membrane) bool { return m.Erased })),
	{name: "Delete", inodes: -3, setup: func(t *testing.T, e *crashEnv) (func() error, func(*testing.T, *Store) string) {
		pdid, err := e.store.Insert(e.tok, "user", "alice", recordV(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		return func() error { return e.store.Delete(e.tok, pdid) }, func(t *testing.T, s *Store) string {
			if !listed(t, s, e.tok, pdid) {
				return "new"
			}
			if _, err := s.GetMembrane(e.tok, pdid); err != nil {
				return "listed without a decodable membrane: " + err.Error()
			}
			// Delete shreds the keys only once the files are gone, so a
			// record that is still there is still readable.
			return recordState(t, s, e.tok, pdid)
		}
	}},
}

// TestCrashCutAllOrNothing cuts the power after every k-th raw device write
// of each record operation, reboots from the raw bytes, and demands
// all-or-nothing: the operation's record is in its old state or its new
// one — never listed in one tree but not the other, never a record without
// a decodable membrane, never half a rewrite — no inode was claimed for an
// operation that did not land, and the fsck walk is clean. An operation
// that reported success must have landed.
func TestCrashCutAllOrNothing(t *testing.T) {
	for _, c := range crashCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			// Dry run: how many raw writes does the operation issue?
			e := newCrashEnv(t)
			op, probe := c.setup(t, e)
			before := e.cut.Writes()
			if err := op(); err != nil {
				t.Fatalf("uncut run: %v", err)
			}
			writes := int(e.cut.Writes() - before)
			if s, _ := e.reboot(t); probe(t, s) != "new" {
				t.Fatalf("uncut run left state %q", probe(t, s))
			}
			t.Logf("%d raw device writes", writes)

			var landed, lost int
			for k := 0; k <= writes; k++ {
				e := newCrashEnv(t)
				op, probe := c.setup(t, e)
				_, base := e.reboot(t)
				e.cut.SetBudget(k)
				opErr := op()
				s, rep := e.reboot(t)
				state := probe(t, s)
				switch state {
				case "new":
					landed++
					if got := rep.Inodes - base.Inodes; got != c.inodes {
						t.Fatalf("cut after %d writes: landed with %+d live inodes, want %+d", k, got, c.inodes)
					}
				case "old":
					lost++
					if opErr == nil {
						t.Fatalf("cut after %d writes: reported success but did not land", k)
					}
					if got := rep.Inodes - base.Inodes; got != 0 && got != c.firstTouch {
						t.Fatalf("cut after %d writes: did not land but live inodes went %d -> %d", k, base.Inodes, rep.Inodes)
					}
				default:
					t.Fatalf("cut after %d writes: torn state: %s", k, state)
				}
			}
			if landed == 0 || lost == 0 {
				t.Fatalf("cut points covered only one outcome (landed %d, lost %d)", landed, lost)
			}
		})
	}
}

// TestFirstTouchInsertRetryAfterCrash is the regression test for the
// half-created subject: whatever write the power is cut at during a
// subject's first insert, rebooting and retrying the insert must leave the
// subject in both major trees (ListByType and ListBySubject agree) with
// exactly the inodes an uninterrupted insert creates. The multi-transaction
// first touch could leave subjects/<s>/<type> linked and tables/<type>/<s>
// not, which every later insert then skipped forever.
func TestFirstTouchInsertRetryAfterCrash(t *testing.T) {
	insert := func(e *crashEnv, s *Store) error {
		_, err := s.Insert(e.tok, "user", "bob", recordV(2), nil)
		return err
	}
	e := newCrashEnv(t)
	before := e.cut.Writes()
	if err := insert(e, e.store); err != nil {
		t.Fatal(err)
	}
	writes := int(e.cut.Writes() - before)
	_, clean := e.reboot(t)

	for k := 0; k <= writes; k++ {
		e := newCrashEnv(t)
		e.cut.SetBudget(k)
		_ = insert(e, e.store)
		s, _ := e.reboot(t)
		bySubject, err := s.ListBySubject(e.tok, "bob")
		if err != nil {
			t.Fatal(err)
		}
		if len(bySubject) == 0 {
			if err := insert(e, s); err != nil {
				t.Fatalf("cut after %d writes: retry: %v", k, err)
			}
			if bySubject, err = s.ListBySubject(e.tok, "bob"); err != nil {
				t.Fatal(err)
			}
		}
		byType, err := s.ListByType(e.tok, "user")
		if err != nil {
			t.Fatal(err)
		}
		if len(bySubject) != 1 || strings.Join(byType, ",") != strings.Join(bySubject, ",") {
			t.Fatalf("cut after %d writes: ListBySubject = %v, ListByType = %v", k, bySubject, byType)
		}
		rep, err := s.fss[0].Check()
		if err != nil {
			t.Fatalf("cut after %d writes: fsck after retry: %v", k, err)
		}
		if rep.Inodes != clean.Inodes {
			t.Fatalf("cut after %d writes: %d live inodes after retry, a clean insert leaves %d", k, rep.Inodes, clean.Inodes)
		}
	}
}
