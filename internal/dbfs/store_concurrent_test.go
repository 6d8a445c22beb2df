package dbfs

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/membrane"
)

// TestConcurrentDisjointSubjects hammers the store from many goroutines,
// each owning a disjoint subject: the whole insert/read/update/erase cycle
// must be race-clean and every goroutine's records must come back intact.
func TestConcurrentDisjointSubjects(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	const (
		goroutines = 8
		recsEach   = 6
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			subject := "subj-" + strconv.Itoa(g)
			pdids := make([]string, 0, recsEach)
			for i := 0; i < recsEach; i++ {
				rec := Record{
					"name":              S(subject + "-rec-" + strconv.Itoa(i)),
					"pwd":               S("secret"),
					"year_of_birthdate": I(int64(1950 + g + i)),
				}
				pdid, err := e.store.Insert(e.tok, "user", subject, rec, nil)
				if err != nil {
					errs <- fmt.Errorf("insert %s/%d: %w", subject, i, err)
					return
				}
				pdids = append(pdids, pdid)
			}
			for i, pdid := range pdids {
				rec, err := e.store.GetRecord(e.tok, pdid)
				if err != nil {
					errs <- fmt.Errorf("get %s: %w", pdid, err)
					return
				}
				if want := subject + "-rec-" + strconv.Itoa(i); rec["name"].S != want {
					errs <- fmt.Errorf("get %s: name %q, want %q", pdid, rec["name"].S, want)
					return
				}
				rec["name"] = S(subject + "-updated-" + strconv.Itoa(i))
				if err := e.store.Update(e.tok, pdid, rec); err != nil {
					errs <- fmt.Errorf("update %s: %w", pdid, err)
					return
				}
			}
			listed, err := e.store.ListBySubject(e.tok, subject)
			if err != nil {
				errs <- fmt.Errorf("list %s: %w", subject, err)
				return
			}
			if len(listed) != recsEach {
				errs <- fmt.Errorf("list %s: %d records, want %d", subject, len(listed), recsEach)
				return
			}
			// Erase the first record, then confirm the tombstone.
			if _, err := e.store.Erase(e.tok, pdids[0]); err != nil {
				errs <- fmt.Errorf("erase %s: %w", pdids[0], err)
				return
			}
			m, err := e.store.GetMembrane(e.tok, pdids[0])
			if err != nil {
				errs <- fmt.Errorf("membrane %s: %w", pdids[0], err)
				return
			}
			if !m.Erased {
				errs <- fmt.Errorf("membrane %s: not erased", pdids[0])
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := e.store.Stats()
	if want := uint64(goroutines * recsEach); st.Inserts != want {
		t.Errorf("stats.Inserts = %d, want %d", st.Inserts, want)
	}
	if want := uint64(goroutines); st.Erasures != want {
		t.Errorf("stats.Erasures = %d, want %d", st.Erasures, want)
	}
}

// TestConcurrentOverlappingSubject aims every goroutine at the SAME subject:
// the shard lock must serialize the record state so reads never observe a
// partial record and concurrent erasures of one pdid stay idempotent.
func TestConcurrentOverlappingSubject(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	const subject = "shared"
	seedID, err := e.store.Insert(e.tok, "user", subject, aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := e.store.Insert(e.tok, "user", subject, aliceRecord(), nil); err != nil {
					errs <- fmt.Errorf("insert: %w", err)
					return
				}
				rec, err := e.store.GetRecord(e.tok, seedID)
				if err != nil {
					errs <- fmt.Errorf("get seed: %w", err)
					return
				}
				// The seed record is rewritten concurrently, but a read must
				// always see a complete, decryptable record.
				if rec["name"].S == "" {
					errs <- errors.New("get seed: empty name")
					return
				}
				rec["name"] = S(fmt.Sprintf("writer-%d-%d", g, i))
				if err := e.store.Update(e.tok, seedID, rec); err != nil {
					errs <- fmt.Errorf("update seed: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Phase 2: concurrent erasure of the same pdid must be idempotent.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.store.Erase(e.tok, seedID); err != nil {
				errs <- fmt.Errorf("erase seed: %w", err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The erased seed leaves the live listing and is listed as erased.
	listed, err := e.store.ListBySubject(e.tok, subject)
	if err != nil {
		t.Fatal(err)
	}
	if want := goroutines * 4; len(listed) != want || slices.Contains(listed, seedID) {
		t.Errorf("ListBySubject: %d records (seed listed: %t), want %d without the seed",
			len(listed), slices.Contains(listed, seedID), want)
	}
	live, erased, err := e.store.ListErased(e.tok, subject)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(live, listed) || !slices.Equal(erased, []string{seedID}) {
		t.Errorf("ListErased = %v, %v; want the live listing and [%s]", live, erased, seedID)
	}
	if st := e.store.Stats(); st.Erasures != 1 {
		t.Errorf("stats.Erasures = %d, want 1 (idempotent)", st.Erasures)
	}
}

// TestUpdateAfterEraseFails guards the Update/Erase serialization: once a
// record's keys are shredded, an update must fail (sealing happens under
// the shard lock, so a concurrent Erase can never be overwritten either).
func TestUpdateAfterEraseFails(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	pdid, err := e.store.Insert(e.tok, "user", "bob", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.store.Erase(e.tok, pdid); err != nil {
		t.Fatal(err)
	}
	if err := e.store.Update(e.tok, pdid, aliceRecord()); !errors.Is(err, membrane.ErrErased) {
		t.Fatalf("Update(erased) err = %v, want membrane.ErrErased", err)
	}
}

// TestUpdateNonexistentMintsNoKeys guards Update's seal ordering: the
// record must be resolved before sealing, so an update of a pdid that was
// never inserted fails without polluting the vault with live keys.
func TestUpdateNonexistentMintsNoKeys(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	const ghost = "user/alice/999"
	if err := e.store.Update(e.tok, ghost, aliceRecord()); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("Update(ghost) err = %v, want ErrNoRecord", err)
	}
	if e.vault.HasKey(ghost) {
		t.Fatal("failed Update minted a vault key for a nonexistent record")
	}
	if n := e.vault.LiveKeys(); n != 0 {
		t.Fatalf("LiveKeys = %d, want 0", n)
	}
}

// TestMutateMembraneComposes runs many concurrent consent mutations on one
// record: each read-modify-write must see the freshest stored state, so
// every purpose's grant survives (a snapshot-writeback would lose most).
func TestMutateMembraneComposes(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	pdid, err := e.store.Insert(e.tok, "user", "carol", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			purpose := "purpose-" + strconv.Itoa(g)
			if _, err := e.store.MutateMembrane(e.tok, pdid, func(m *membrane.Membrane) error {
				m.SetConsent(purpose, membrane.Grant{Kind: membrane.GrantAll})
				return nil
			}); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	m, err := e.store.GetMembrane(e.tok, pdid)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < writers; g++ {
		purpose := "purpose-" + strconv.Itoa(g)
		if grant, ok := m.Consents[purpose]; !ok || grant.Kind != membrane.GrantAll {
			t.Errorf("grant for %s lost: %+v", purpose, m.Consents)
		}
	}
	// A consent change after erasure fails and must not resurrect the
	// tombstone.
	if _, err := e.store.Erase(e.tok, pdid); err != nil {
		t.Fatal(err)
	}
	if _, err := e.store.MutateMembrane(e.tok, pdid, func(m *membrane.Membrane) error {
		m.SetConsent("late", membrane.Grant{Kind: membrane.GrantAll})
		return nil
	}); !errors.Is(err, membrane.ErrErased) {
		t.Fatalf("MutateMembrane(erased) err = %v, want membrane.ErrErased", err)
	}
	m, err = e.store.GetMembrane(e.tok, pdid)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Erased || m.EscrowRef == "" {
		t.Fatalf("erasure tombstone lost: erased=%t escrow=%q", m.Erased, m.EscrowRef)
	}
}

// TestConcurrentInsertVsScan interleaves cross-subject scans with inserts:
// listings are point-in-time snapshots and must never error or return a
// half-written record (records become listable only once their membrane,
// written last, exists).
func TestConcurrentInsertVsScan(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	const writers = 4
	var writerWG, scanWG sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, writers+1)
	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func(g int) {
			defer writerWG.Done()
			subject := "scan-subj-" + strconv.Itoa(g)
			for i := 0; i < 8; i++ {
				if _, err := e.store.Insert(e.tok, "user", subject, aliceRecord(), nil); err != nil {
					errs <- fmt.Errorf("insert: %w", err)
					return
				}
			}
		}(g)
	}
	scanWG.Add(1)
	go func() {
		defer scanWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			pdids, err := e.store.ListByType(e.tok, "user")
			if err != nil {
				errs <- fmt.Errorf("scan: %w", err)
				return
			}
			for _, pdid := range pdids {
				if _, err := e.store.GetMembrane(e.tok, pdid); err != nil {
					errs <- fmt.Errorf("scan membrane %s: %w", pdid, err)
					return
				}
			}
		}
	}()
	writerWG.Wait()
	close(stop)
	scanWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	pdids, err := e.store.ListByType(e.tok, "user")
	if err != nil {
		t.Fatal(err)
	}
	if want := writers * 8; len(pdids) != want {
		t.Errorf("final ListByType: %d, want %d", len(pdids), want)
	}
}

// TestEraseRacesListingsAndInserts runs Erase on one subject while other
// goroutines list its type, batch-fetch the listed membranes and insert
// more of its records. A pdid listed live and erased before its fetch is
// still found by pdid (as a tombstone), an erasure's rename is never seen
// half done, and at the end the live and erased listings partition the
// subject's records exactly.
func TestEraseRacesListingsAndInserts(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	const subject, seeded, inserted = "racy", 24, 24
	var victims []string
	for i := 0; i < seeded; i++ {
		pdid, err := e.store.Insert(e.tok, "user", subject, aliceRecord(), nil)
		if err != nil {
			t.Fatal(err)
		}
		victims = append(victims, pdid)
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 3)
	var fresh []string
	writers.Add(2)
	go func() {
		defer writers.Done()
		for _, pdid := range victims {
			if _, err := e.store.Erase(e.tok, pdid); err != nil {
				errs <- fmt.Errorf("erase %s: %w", pdid, err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < inserted; i++ {
			pdid, err := e.store.Insert(e.tok, "user", subject, aliceRecord(), nil)
			if err != nil {
				errs <- fmt.Errorf("insert: %w", err)
				return
			}
			fresh = append(fresh, pdid)
		}
	}()
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			pdids, err := e.store.ListByType(e.tok, "user")
			if err != nil {
				errs <- fmt.Errorf("list: %w", err)
				return
			}
			ms, err := e.store.GetMembranes(e.tok, pdids)
			if err != nil {
				errs <- fmt.Errorf("fetch listed membranes: %w", err)
				return
			}
			for i, m := range ms {
				if m.PDID != pdids[i] || (m.Erased && m.EscrowRef == "") {
					errs <- fmt.Errorf("membrane of %s = %+v", pdids[i], m)
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	live, erased, err := e.store.ListErased(e.tok, subject)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(victims)
	slices.Sort(fresh)
	if !slices.Equal(live, fresh) || !slices.Equal(erased, victims) {
		t.Fatalf("ListErased = %d live, %d erased; want the %d inserted and the %d erased", len(live), len(erased), len(fresh), len(victims))
	}
	if byType, err := e.store.ListByType(e.tok, "user"); err != nil || !slices.Equal(byType, fresh) {
		t.Fatalf("final ListByType = %v, %v; want the inserted records", byType, err)
	}
	if _, err := e.fs.Check(); err != nil {
		t.Fatal(err)
	}
}
