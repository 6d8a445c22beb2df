package dbfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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

// crashEnv is a DBFS whose device can be cut: the filesystems (and their
// write-back buffer caches) sit on a blockdev.PowerCut over mem, and a
// "reboot" mounts fresh filesystems from mem's bytes. With parts > 1 the
// store spans that many equal partitions of the one device, each its own
// filesystem, the way core.Boot lays out the PD disk; one budget cuts them
// all at once.
type crashEnv struct {
	mem   *blockdev.Mem
	cut   *blockdev.PowerCut
	parts int
	store *Store
	guard *lsm.Guard
	vault *cryptoshred.Vault
	clock *simclock.Sim
	tok   *lsm.Token
}

var (
	crashAuthOnce sync.Once
	crashAuth     *cryptoshred.Authority

	// crashParts is the partition count newCrashEnv builds;
	// TestCrashCutFourPartitions raises it for the tests it runs.
	crashParts = 1
)

// crashPartBlocks is the size of one partition of a crash device.
const crashPartBlocks = 1024

func newCrashEnv(t *testing.T) *crashEnv {
	t.Helper()
	e := newUntypedCrashEnv(t, crashParts)
	if err := e.store.CreateType(e.tok, userSchema()); err != nil {
		t.Fatalf("CreateType: %v", err)
	}
	return e
}

// newUntypedCrashEnv is a crash environment over parts partitions with no
// type declared yet.
func newUntypedCrashEnv(t *testing.T, parts int) *crashEnv {
	t.Helper()
	crashAuthOnce.Do(func() {
		var err error
		if crashAuth, err = cryptoshred.NewAuthority(1024); err != nil {
			t.Fatalf("NewAuthority: %v", err)
		}
	})
	e := &crashEnv{
		mem:   blockdev.MustMem(uint64(max(2048, parts*crashPartBlocks))),
		parts: parts,
		guard: lsm.NewGuard(),
		vault: cryptoshred.NewVault(crashAuth.PublicKey()),
		clock: simclock.NewSim(simclock.Epoch),
	}
	e.cut = blockdev.NewPowerCut(e.mem)
	e.tok = e.guard.Mint("ded", lsm.CapDBFS)
	fss := make([]*inode.FS, parts)
	for i, dev := range e.devices(t, e.cut) {
		var err error
		if fss[i], err = inode.Format(dev, inode.Options{NInodes: 256, JournalBlocks: 64, Clock: e.clock}); err != nil {
			t.Fatalf("inode.Format: %v", err)
		}
	}
	var err error
	if e.store, err = Create(fss, e.guard, e.vault, e.clock, Config{}); err != nil {
		t.Fatalf("dbfs.Create: %v", err)
	}
	return e
}

// devices is the env's filesystem devices over dev: dev itself, or its
// partitions.
func (e *crashEnv) devices(t *testing.T, dev blockdev.Device) []blockdev.Device {
	t.Helper()
	if e.parts == 1 {
		return []blockdev.Device{dev}
	}
	devs := make([]blockdev.Device, e.parts)
	for i := range devs {
		part, err := blockdev.NewPartition(dev, uint64(i*crashPartBlocks), crashPartBlocks)
		if err != nil {
			t.Fatalf("NewPartition %d: %v", i, err)
		}
		devs[i] = part
	}
	return devs
}

// reboot mounts what the raw device holds — the buffer caches' dirty blocks
// and everything past the cut are gone — and reopens DBFS on it, after the
// fsck walk of every filesystem. The report sums all of them.
func (e *crashEnv) reboot(t *testing.T) (*Store, inode.CheckReport) {
	t.Helper()
	var fss []*inode.FS
	for i, dev := range e.devices(t, e.mem) {
		fs, err := inode.Mount(dev, e.clock)
		if err != nil {
			t.Fatalf("remount %d: %v", i, err)
		}
		fss = append(fss, fs)
	}
	rep := fsckAll(t, fss)
	for _, fs := range fss {
		lookupsMatchDisk(t, fs)
	}
	s, err := Open(fss, e.guard, e.vault, e.clock, Config{})
	if err != nil {
		t.Fatalf("dbfs.Open after the cut: %v", err)
	}
	return s, rep
}

// fsckAll runs the fsck walk on every filesystem and sums the reports.
func fsckAll(t *testing.T, fss []*inode.FS) inode.CheckReport {
	t.Helper()
	var sum inode.CheckReport
	for i, fs := range fss {
		rep, err := fs.Check()
		if err != nil {
			t.Fatalf("fsck of filesystem %d: %v", i, err)
		}
		sum.Inodes += rep.Inodes
		sum.Blocks += rep.Blocks
		sum.LeakedBlocks += rep.LeakedBlocks
	}
	return sum
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
		if valueEqual(rec["name"], want["name"]) && valueEqual(rec["pwd"], want["pwd"]) &&
			valueEqual(rec["year_of_birthdate"], want["year_of_birthdate"]) {
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
	// dan shares alice's partition when the store spans four, so the type's
	// tree is there already and the first touch makes the subject's two.
	insertCase("InsertFirstTouch", "dan", 5, 2),
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
	// Erase tombstones the membrane and renames it in one transaction:
	// "old" is live-listed with an untouched membrane, "new" is listed only
	// as erased, with a decodable tombstone that carries the escrow ref.
	{name: "Erase", setup: func(t *testing.T, e *crashEnv) (func() error, func(*testing.T, *Store) string) {
		pdid, err := e.store.Insert(e.tok, "user", "alice", recordV(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		return func() error { _, err := e.store.Erase(e.tok, pdid); return err }, func(t *testing.T, s *Store) string {
			live := listed(t, s, e.tok, pdid)
			_, erased, err := s.ListErased(e.tok, "alice")
			if err != nil {
				t.Fatal(err)
			}
			listedErased := slices.Contains(erased, pdid)
			m, err := s.GetMembrane(e.tok, pdid)
			if err != nil {
				return "undecodable membrane: " + err.Error()
			}
			switch {
			case live && !listedErased && !m.Erased:
				return "old"
			case !live && listedErased && m.Erased && m.EscrowRef != "":
				return "new"
			}
			return fmt.Sprintf("torn erase: live %t, listed erased %t, tombstone %t, escrow %q", live, listedErased, m.Erased, m.EscrowRef)
		}
	}},
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
			before := e.cut.Stats().Writes
			if err := op(); err != nil {
				t.Fatalf("uncut run: %v", err)
			}
			writes := int(e.cut.Stats().Writes - before)
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
	before := e.cut.Stats().Writes
	if err := insert(e, e.store); err != nil {
		t.Fatal(err)
	}
	writes := int(e.cut.Stats().Writes - before)
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
		if rep := fsckAll(t, s.fss); rep.Inodes != clean.Inodes {
			t.Fatalf("cut after %d writes: %d live inodes after retry, a clean insert leaves %d", k, rep.Inodes, clean.Inodes)
		}
	}
}

// TestCrashCutFourPartitions runs the crash-cut tests over the PD layout
// core.Boot builds: four partitions of one device, one power cut over all.
// Their subjects sit on different partitions, and the first insert of a
// subject on a partition the type has not reached yet also makes the
// partition's tables/<type> tree.
func TestCrashCutFourPartitions(t *testing.T) {
	crashParts = 4
	defer func() { crashParts = 1 }()
	t.Run("AllOrNothing", TestCrashCutAllOrNothing)
	t.Run("FirstTouchRetry", TestFirstTouchInsertRetryAfterCrash)
}

// TestCrashCutCreateTypeFourPartitions cuts the power after every device
// write of CreateType followed by one insert per partition, each the type's
// first touch there, on the four-partition layout. After each cut it
// reboots, declares the type again if it did not land, and inserts one
// record per partition: every insert must succeed, every filesystem must be
// clean with Lookup agreeing with the disk, and both major trees must list
// the same records. Every landed record must also sit below the seq lease
// persisted on partition 0: the lease is durable before an insert on
// another partition commits, so no record number is handed out twice. The
// first insert is on partition 1, so its lease and its commit are on
// different partitions.
func TestCrashCutCreateTypeFourPartitions(t *testing.T) {
	subjects := []string{"bob", "alice", "erin", "frank"} // partitions 1, 2, 3, 0
	run := func(s *Store, tok *lsm.Token) error {
		if err := s.CreateType(tok, userSchema()); err != nil {
			return err
		}
		for _, subj := range subjects {
			if _, err := s.Insert(tok, "user", subj, recordV(1), nil); err != nil {
				return err
			}
		}
		return nil
	}
	e := newUntypedCrashEnv(t, 4)
	before := e.cut.Stats().Writes
	if err := run(e.store, e.tok); err != nil {
		t.Fatal(err)
	}
	writes := int(e.cut.Stats().Writes - before)
	t.Logf("%d raw device writes", writes)

	for k := 0; k <= writes; k++ {
		e := newUntypedCrashEnv(t, 4)
		e.cut.SetBudget(k)
		_ = run(e.store, e.tok)
		s, _ := e.reboot(t)
		if _, err := s.SchemaOf(e.tok, "user"); errors.Is(err, ErrNoType) {
			if err := s.CreateType(e.tok, userSchema()); err != nil {
				t.Fatalf("cut after %d writes: CreateType again: %v", k, err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		landed, err := s.ListByType(e.tok, "user")
		if err != nil {
			t.Fatal(err)
		}
		for _, pdid := range landed {
			if _, _, n, _ := SplitPDID(pdid); n > s.seqHighs["user"] {
				t.Fatalf("cut after %d writes: %s landed above the persisted seq lease %d", k, pdid, s.seqHighs["user"])
			}
		}
		var bySubject []string
		for _, subj := range subjects {
			if _, err := s.Insert(e.tok, "user", subj, recordV(2), nil); err != nil {
				t.Fatalf("cut after %d writes: insert for %s: %v", k, subj, err)
			}
			live, err := s.ListBySubject(e.tok, subj)
			if err != nil {
				t.Fatal(err)
			}
			bySubject = append(bySubject, live...)
		}
		for _, fs := range s.fss {
			lookupsMatchDisk(t, fs)
		}
		byType, err := s.ListByType(e.tok, "user")
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(bySubject)
		if len(byType) != len(landed)+len(subjects) || !slices.Equal(byType, bySubject) {
			t.Fatalf("cut after %d writes: %d records had landed; ListByType = %v, ListBySubject = %v", k, len(landed), byType, bySubject)
		}
	}
}
