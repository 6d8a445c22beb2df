package dbfs

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cryptoshred"
	"repro/internal/inode"
	"repro/internal/membrane"
)

// coldEnv is newEnv with the cold tier enabled: records idle for an hour
// demote on the next repack pass.
func coldEnv(t *testing.T) *testEnv {
	t.Helper()
	e := newEnvWith(t, Config{ColdAfter: time.Hour})
	e.mustCreateUser(t)
	return e
}

func TestColdDemoteThenTransparentPromote(t *testing.T) {
	e := coldEnv(t)
	p1, err := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Freshly touched records stay hot.
	n, err := e.store.RepackCold(e.tok, e.clock.Now())
	if err != nil {
		t.Fatalf("RepackCold: %v", err)
	}
	if n != 0 {
		t.Fatalf("fresh records demoted: %d", n)
	}

	e.clock.Advance(2 * time.Hour)
	n, err = e.store.RepackCold(e.tok, e.clock.Now())
	if err != nil {
		t.Fatalf("RepackCold: %v", err)
	}
	if n != 2 {
		t.Fatalf("RepackCold demoted %d, want 2", n)
	}
	st := e.store.Stats()
	if st.Demotions != 2 || st.ColdRecords != 2 || st.Promotions != 0 {
		t.Fatalf("Stats = %+v, want 2 demotions, 2 cold records", st)
	}
	// Both records sit in the subject's one archive file, and the gauge is
	// their stored parts' bytes minus that file's bytes.
	if files, err := e.fs.Children(e.store.cold.roots[0]); err != nil || len(files) != 1 {
		t.Fatalf("cold tree = %v, %v; want one archive file", files, err)
	}
	enc := coldArchiveBytes(t, e, "alice")
	arch, err := decodeArchive(enc)
	if err != nil {
		t.Fatal(err)
	}
	if want := arch.rawSize() - int64(len(enc)); st.ColdBytesSaved != want {
		t.Fatalf("ColdBytesSaved = %d, want raw %d - encoded %d = %d", st.ColdBytesSaved, arch.rawSize(), len(enc), want)
	}

	// First read promotes transparently — same namespace, same answer.
	rec, err := e.store.GetRecord(e.tok, p1)
	if err != nil {
		t.Fatalf("GetRecord(archived): %v", err)
	}
	if rec["name"].S != "Alice Martin" || rec["pwd"].S != "correct-horse" || rec["year_of_birthdate"].I != 1990 {
		t.Fatalf("promoted record = %v", rec)
	}
	m, err := e.store.GetMembrane(e.tok, p2)
	if err != nil {
		t.Fatalf("GetMembrane(archived): %v", err)
	}
	if m.PDID != p2 {
		t.Fatalf("membrane identity = %+v", m)
	}
	st = e.store.Stats()
	if st.Promotions != 2 {
		t.Fatalf("Stats.Promotions = %d, want 2", st.Promotions)
	}
	// Promotion retains the (now stale, never served) archive entries.
	if st.ColdRecords != 2 {
		t.Fatalf("Stats.ColdRecords = %d after promotion, want 2 (entries retained)", st.ColdRecords)
	}
}

func TestColdListingsIncludeArchived(t *testing.T) {
	e := coldEnv(t)
	pdid, err := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(2 * time.Hour)
	if _, err := e.store.RepackCold(e.tok, e.clock.Now()); err != nil {
		t.Fatal(err)
	}

	bySubj, err := e.store.ListBySubject(e.tok, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(bySubj) != 1 || bySubj[0] != pdid {
		t.Fatalf("ListBySubject = %v, want [%s]", bySubj, pdid)
	}
	byType, err := e.store.ListByType(e.tok, "user")
	if err != nil {
		t.Fatal(err)
	}
	if len(byType) != 1 || byType[0] != pdid {
		t.Fatalf("ListByType = %v, want [%s]", byType, pdid)
	}

	// Promote, then verify the retained archive entry does not double-list.
	if _, err := e.store.GetRecord(e.tok, pdid); err != nil {
		t.Fatal(err)
	}
	bySubj, err = e.store.ListBySubject(e.tok, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(bySubj) != 1 {
		t.Fatalf("ListBySubject after promotion = %v, want exactly one entry", bySubj)
	}
	byType, err = e.store.ListByType(e.tok, "user")
	if err != nil {
		t.Fatal(err)
	}
	if len(byType) != 1 {
		t.Fatalf("ListByType after promotion = %v, want exactly one entry", byType)
	}
}

// coldArchiveBytes reads subject's encoded archive file from the cold tree.
func coldArchiveBytes(t *testing.T, e *testEnv, subject string) []byte {
	t.Helper()
	ino, err := e.fs.Lookup(e.store.cold.roots[0], subject)
	if err != nil {
		t.Fatalf("archive of %s: %v", subject, err)
	}
	b, err := readAll(e.fs, ino)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestColdRedemotionWritesNoNewBytes(t *testing.T) {
	e := coldEnv(t)
	pdid, err := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(2 * time.Hour)
	if _, err := e.store.RepackCold(e.tok, e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	before, usedBefore := coldArchiveBytes(t, e, "alice"), e.fs.UsedBlocks()
	if _, err := e.store.GetRecord(e.tok, pdid); err != nil {
		t.Fatal(err)
	}
	// The record re-idles unchanged: re-demotion replaces its retained entry
	// with the same parts, so the archive is rewritten byte for byte and
	// the volume ends where it started.
	e.clock.Advance(2 * time.Hour)
	n, err := e.store.RepackCold(e.tok, e.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("re-demotion demoted %d, want 1", n)
	}
	if after := coldArchiveBytes(t, e, "alice"); !bytes.Equal(after, before) {
		t.Fatalf("archive changed on unchanged re-demotion: %d bytes -> %d", len(before), len(after))
	}
	if used := e.fs.UsedBlocks(); used != usedBefore {
		t.Fatalf("UsedBlocks %d after re-demotion, want %d", used, usedBefore)
	}
}

func TestColdIndexSurvivesRemount(t *testing.T) {
	e := coldEnv(t)
	pdid, err := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(2 * time.Hour)
	if _, err := e.store.RepackCold(e.tok, e.clock.Now()); err != nil {
		t.Fatal(err)
	}

	st2, err := Open([]*inode.FS{e.fs}, e.guard, e.vault, e.clock, Config{ColdAfter: time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if st := st2.Stats(); st.ColdRecords != 1 {
		t.Fatalf("remounted ColdRecords = %d, want 1 (index rebuilt)", st.ColdRecords)
	}
	rec, err := st2.GetRecord(e.tok, pdid)
	if err != nil {
		t.Fatalf("GetRecord after remount: %v", err)
	}
	if rec["name"].S != "Alice Martin" {
		t.Fatalf("record after remount = %v", rec)
	}
}

func TestColdDeleteRemovesArchiveEntry(t *testing.T) {
	e := coldEnv(t)
	pdid, err := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(2 * time.Hour)
	if _, err := e.store.RepackCold(e.tok, e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	if err := e.store.Delete(e.tok, pdid); err != nil {
		t.Fatalf("Delete(archived): %v", err)
	}
	if _, err := e.store.ColdRaw(e.tok, pdid); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("ColdRaw after Delete = %v, want ErrNoRecord", err)
	}
	if got, err := e.store.ListBySubject(e.tok, "alice"); err != nil || len(got) != 0 {
		t.Fatalf("ListBySubject after Delete = %v, %v, want empty", got, err)
	}
	if st := e.store.Stats(); st.ColdRecords != 0 {
		t.Fatalf("ColdRecords after Delete = %d, want 0", st.ColdRecords)
	}
}

// TestColdErasedStaysOutOfListings: a record demoted, promoted and then
// erased keeps its archive entry, but its hot <n>.erased name shadows that
// entry in both listings — also after a remount rebuilds the cold index.
// It is never demoted again, and a snapshot stores it as an erased marker.
func TestColdErasedStaysOutOfListings(t *testing.T) {
	e := coldEnv(t)
	pdid, err := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(2 * time.Hour)
	if n, err := e.store.RepackCold(e.tok, e.clock.Now()); err != nil || n != 1 {
		t.Fatalf("RepackCold = %d, %v; want 1 demoted", n, err)
	}
	if _, err := e.store.GetRecord(e.tok, pdid); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if _, err := e.store.Erase(e.tok, pdid); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, when string) {
		t.Helper()
		byType, err := s.ListByType(e.tok, "user")
		if err != nil {
			t.Fatal(err)
		}
		live, erased, err := s.ListErased(e.tok, "alice")
		if err != nil {
			t.Fatal(err)
		}
		if len(byType) != 0 || len(live) != 0 || len(erased) != 1 || erased[0] != pdid {
			t.Fatalf("%s: ListByType = %v, ListErased = %v, %v; want only [%s] erased", when, byType, live, erased, pdid)
		}
		if _, err := s.ColdRaw(e.tok, pdid); err != nil {
			t.Fatalf("%s: the archive entry went: %v", when, err)
		}
	}
	check(e.store, "after erase")
	e.clock.Advance(2 * time.Hour)
	if n, err := e.store.RepackCold(e.tok, e.clock.Now()); err != nil || n != 0 {
		t.Fatalf("RepackCold after erase = %d, %v; want nothing demoted", n, err)
	}
	if _, err := e.store.SnapshotMembranes(e.tok, "post-erase"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.store.SnapshotMembrane(e.tok, "post-erase", pdid); !errors.Is(err, cryptoshred.ErrKeyDestroyed) {
		t.Fatalf("SnapshotMembrane(erased) = %v, want ErrKeyDestroyed", err)
	}

	st2, err := Open([]*inode.FS{e.fs}, e.guard, e.vault, e.clock, Config{ColdAfter: time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	check(st2, "after remount")
	if m, err := st2.GetMembrane(e.tok, pdid); err != nil || !m.Erased {
		t.Fatalf("tombstone after remount = %+v, %v", m, err)
	}
	// Delete takes the hot files and the archive entry.
	if err := st2.Delete(e.tok, pdid); err != nil {
		t.Fatal(err)
	}
	if live, erased, err := st2.ListErased(e.tok, "alice"); err != nil || len(live)+len(erased) != 0 {
		t.Fatalf("ListErased after Delete = %v, %v, %v; want both empty", live, erased, err)
	}
	if _, err := st2.ColdRaw(e.tok, pdid); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("ColdRaw after Delete = %v, want ErrNoRecord", err)
	}
}

func TestColdConcurrentPromotion(t *testing.T) {
	e := coldEnv(t)
	pdid, err := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(2 * time.Hour)
	if _, err := e.store.RepackCold(e.tok, e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, err := e.store.GetRecord(e.tok, pdid)
			if err != nil {
				t.Errorf("GetRecord: %v", err)
				return
			}
			if rec["name"].S != "Alice Martin" {
				t.Errorf("record = %v", rec)
			}
		}()
	}
	wg.Wait()
	if st := e.store.Stats(); st.Promotions != 1 {
		t.Fatalf("Stats.Promotions = %d after racing readers, want 1", st.Promotions)
	}
}

func TestSnapshotLifecycle(t *testing.T) {
	e := coldEnv(t)
	pa, err := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := e.store.Insert(e.tok, "user", "bob", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Demote alice so the snapshot spans both tiers.
	e.clock.Advance(2 * time.Hour)
	if _, err := e.store.RepackCold(e.tok, e.clock.Now()); err != nil {
		t.Fatal(err)
	}

	n, err := e.store.SnapshotMembranes(e.tok, "t0")
	if err != nil {
		t.Fatalf("SnapshotMembranes: %v", err)
	}
	if n != 2 {
		t.Fatalf("snapshot captured %d records, want 2 (one hot, one archived)", n)
	}
	if _, err := e.store.SnapshotMembranes(e.tok, "t0"); !errors.Is(err, ErrSnapshotExists) {
		t.Fatalf("duplicate label = %v, want ErrSnapshotExists", err)
	}
	if _, err := e.store.SnapshotMembranes(e.tok, "bad/label"); !errors.Is(err, ErrBadPDID) {
		t.Fatalf("slashed label = %v, want ErrBadPDID", err)
	}
	if st := e.store.Stats(); st.SnapshotsTaken != 1 {
		t.Fatalf("Stats.SnapshotsTaken = %d, want 1", st.SnapshotsTaken)
	}

	m0, err := e.store.SnapshotMembrane(e.tok, "t0", pb)
	if err != nil {
		t.Fatalf("SnapshotMembrane(hot record): %v", err)
	}
	if m0.PDID != pb {
		t.Fatalf("snapshot membrane identity = %+v", m0)
	}
	ma, err := e.store.SnapshotMembrane(e.tok, "t0", pa)
	if err != nil {
		t.Fatalf("SnapshotMembrane(archived record): %v", err)
	}
	if ma.PDID != pa {
		t.Fatalf("snapshot membrane identity = %+v", ma)
	}

	// The snapshot is immutable: mutating the live membrane does not bleed
	// into the captured image.
	if _, err := e.store.MutateMembrane(e.tok, pb, func(m *membrane.Membrane) error {
		m.TTL += 24 * time.Hour
		return nil
	}); err != nil {
		t.Fatalf("MutateMembrane: %v", err)
	}
	again, err := e.store.SnapshotMembrane(e.tok, "t0", pb)
	if err != nil {
		t.Fatal(err)
	}
	if again.TTL != m0.TTL {
		t.Fatalf("snapshot TTL drifted: %v -> %v", m0.TTL, again.TTL)
	}

	if _, err := e.store.SnapshotMembrane(e.tok, "nope", pb); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("unknown label = %v, want ErrNoSnapshot", err)
	}
}

// TestEraseKillsArchiveAndSnapshot is the cryptoshred/cold-tier interplay
// contract: after Erase, the record's archived ciphertext and its snapshot
// entries are undecodable — ErrKeyDestroyed, never plaintext.
func TestEraseKillsArchiveAndSnapshot(t *testing.T) {
	e := coldEnv(t)
	pdid, err := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(2 * time.Hour)
	if _, err := e.store.RepackCold(e.tok, e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.store.SnapshotMembranes(e.tok, "pre-erase"); err != nil {
		t.Fatal(err)
	}

	if _, err := e.store.Erase(e.tok, pdid); err != nil {
		t.Fatalf("Erase(archived record): %v", err)
	}

	// The archive entry survives Erase (its ciphertext is exactly as dead
	// as the hot tier's) but no key can open it.
	parts, err := e.store.ColdRaw(e.tok, pdid)
	if err != nil {
		t.Fatalf("ColdRaw after Erase: %v", err)
	}
	for _, name := range []string{"data", "sens"} {
		ct := parts[name]
		if ct == nil {
			t.Fatalf("archived part %q missing", name)
		}
		if bytes.Contains(ct, []byte("Alice Martin")) || bytes.Contains(ct, []byte("correct-horse")) {
			t.Fatalf("archived part %q holds plaintext", name)
		}
	}
	if _, err := e.vault.Open(pdid, parts["data"]); !errors.Is(err, cryptoshred.ErrKeyDestroyed) {
		t.Fatalf("Open(archived data) after Erase = %v, want ErrKeyDestroyed", err)
	}
	if _, err := e.vault.Open(pdid+sensKeySuffix, parts["sens"]); !errors.Is(err, cryptoshred.ErrKeyDestroyed) {
		t.Fatalf("Open(archived sens) after Erase = %v, want ErrKeyDestroyed", err)
	}

	// The pre-erase snapshot's entry was sealed under the shredded key.
	if _, err := e.store.SnapshotMembrane(e.tok, "pre-erase", pdid); !errors.Is(err, cryptoshred.ErrKeyDestroyed) {
		t.Fatalf("SnapshotMembrane(pre-erase) after Erase = %v, want ErrKeyDestroyed", err)
	}
	// A snapshot taken after erasure stores an erased marker — same answer.
	if _, err := e.store.SnapshotMembranes(e.tok, "post-erase"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.store.SnapshotMembrane(e.tok, "post-erase", pdid); !errors.Is(err, cryptoshred.ErrKeyDestroyed) {
		t.Fatalf("SnapshotMembrane(post-erase) = %v, want ErrKeyDestroyed", err)
	}
}

// TestOpenRequiresColdTrees: Create makes the cold and snapshot trees on
// every instance, so Open only looks them up — a volume missing either
// one is refused, not repaired.
func TestOpenRequiresColdTrees(t *testing.T) {
	for _, name := range []string{coldRootName, snapRootName} {
		e := coldEnv(t)
		ino, err := e.fs.Lookup(inode.RootIno, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.fs.Do([]inode.Ino{inode.RootIno, ino}, func(op *inode.Op) error {
			return op.Unlink(inode.RootIno, name, ino)
		}); err != nil {
			t.Fatal(err)
		}
		_, err = Open([]*inode.FS{e.fs}, e.guard, e.vault, e.clock, Config{})
		if err == nil || !strings.Contains(err.Error(), name+" tree") {
			t.Fatalf("Open without the %s tree = %v, want an error naming it", name, err)
		}
	}
}
