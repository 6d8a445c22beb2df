package dbfs

// Tests for the decoded-membrane cache: coherence under concurrent
// read/mutate/erase pressure (run with -race), eviction under a tiny
// capacity, the version-bump invalidation paths, the disable switch, and
// the read-only sharing of cached membranes.

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/membrane"
)

const ctrKey = "stress-ctr"

// membraneCtr reads the monotonic stress counter a writer keeps in the
// membrane's collection map.
func membraneCtr(m *membrane.Membrane) int64 {
	v := m.Collection[ctrKey]
	if v == "" {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// TestCacheCoherenceStress hammers a handful of records — deliberately all
// on ONE subject, so they share a lock shard and a cache shard — with one
// mutating writer and several readers per record. The writer bumps a
// monotonic counter through MutateMembrane (interleaving data Updates to
// exercise the version-bump invalidation path) and publishes each committed
// value; every reader asserts it never observes a counter below the floor
// published before its read started — i.e. the cache can never serve a
// membrane older than the last committed mutation. A final eraser checks
// tombstones are immediately visible and never resurrected.
func TestCacheCoherenceStress(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	const (
		records = 4
		rounds  = 40
		readers = 3
	)
	subject := "stress-subject"
	pdids := make([]string, records)
	floors := make([]atomic.Int64, records)
	erased := make([]atomic.Bool, records)
	for i := range pdids {
		pdid, err := e.store.Insert(e.tok, "user", subject, aliceRecord(), nil)
		if err != nil {
			t.Fatal(err)
		}
		pdids[i] = pdid
	}
	var writerWG, readerWG sync.WaitGroup
	errs := make(chan error, records*(readers+1))
	stop := make(chan struct{})
	for i := range pdids {
		writerWG.Add(1)
		go func(i int) { // the record's single writer
			defer writerWG.Done()
			pdid := pdids[i]
			for r := 1; r <= rounds; r++ {
				want := int64(r - 1)
				if _, err := e.store.MutateMembrane(e.tok, pdid, func(m *membrane.Membrane) error {
					if got := membraneCtr(m); got != want {
						return fmt.Errorf("mutate %s: stored ctr %d, want %d (stale RMW base)", pdid, got, want)
					}
					if m.Collection == nil {
						m.Collection = make(map[string]string)
					}
					m.Collection[ctrKey] = strconv.FormatInt(int64(r), 10)
					m.Version++
					return nil
				}); err != nil {
					errs <- err
					return
				}
				floors[i].Store(int64(r))
				if r%8 == 0 {
					// Data update: bumps the record's cache version without
					// touching the membrane bytes.
					if err := e.store.Update(e.tok, pdid, aliceRecord()); err != nil {
						errs <- fmt.Errorf("update %s: %w", pdid, err)
						return
					}
				}
			}
		}(i)
		for rd := 0; rd < readers; rd++ {
			readerWG.Add(1)
			go func(i int) {
				defer readerWG.Done()
				pdid := pdids[i]
				for {
					select {
					case <-stop:
						return
					default:
					}
					floor := floors[i].Load()
					wasErased := erased[i].Load()
					m, err := e.store.GetMembrane(e.tok, pdid)
					if err != nil {
						errs <- fmt.Errorf("read %s: %w", pdid, err)
						return
					}
					if got := membraneCtr(m); got < floor {
						errs <- fmt.Errorf("read %s: stale membrane ctr %d < committed floor %d", pdid, got, floor)
						return
					}
					if wasErased && !m.Erased {
						errs <- fmt.Errorf("read %s: erasure tombstone resurrected", pdid)
						return
					}
				}
			}(i)
		}
	}
	writerWG.Wait() // writers done; readers still spinning
	for i, pdid := range pdids {
		if _, err := e.store.Erase(e.tok, pdid); err != nil {
			t.Fatal(err)
		}
		erased[i].Store(true)
	}
	close(stop)
	readerWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i, pdid := range pdids {
		m, err := e.store.GetMembrane(e.tok, pdid)
		if err != nil {
			t.Fatal(err)
		}
		if got := membraneCtr(m); got != rounds {
			t.Errorf("record %d: final ctr %d, want %d", i, got, rounds)
		}
		if !m.Erased {
			t.Errorf("record %d: tombstone missing", i)
		}
	}
	if st := e.store.Stats(); st.CacheHits == 0 {
		t.Errorf("stress produced no cache hits: %+v", st)
	}
}

// TestCacheEvictionUnderCapacity squeezes many records of one subject (one
// cache shard) through a capacity-1-per-shard cache: evictions must occur,
// every read must still return the right membrane, and the counters must
// account for hits, misses and evictions.
func TestCacheEvictionUnderCapacity(t *testing.T) {
	e := newEnvWith(t, Config{MembraneCache: 1}) // 1 entry per shard
	e.mustCreateUser(t)
	const records = 10
	subject := "evict-subject"
	pdids := make([]string, records)
	for i := range pdids {
		pdid, err := e.store.Insert(e.tok, "user", subject, aliceRecord(), nil)
		if err != nil {
			t.Fatal(err)
		}
		pdids[i] = pdid
	}
	for pass := 0; pass < 3; pass++ {
		for _, pdid := range pdids {
			m, err := e.store.GetMembrane(e.tok, pdid)
			if err != nil {
				t.Fatal(err)
			}
			if m.PDID != pdid {
				t.Fatalf("read %s got membrane of %s", pdid, m.PDID)
			}
		}
	}
	st := e.store.Stats()
	if st.CacheEvictions == 0 {
		t.Errorf("no evictions under capacity pressure: %+v", st)
	}
	if st.CacheMisses == 0 {
		t.Errorf("no misses under capacity pressure: %+v", st)
	}
	if want := uint64(3 * records); st.MembraneReads != want {
		t.Errorf("MembraneReads = %d, want %d", st.MembraneReads, want)
	}
	// Same-record rereads must hit: one entry per shard is enough.
	if _, err := e.store.GetMembrane(e.tok, pdids[0]); err != nil { // fill
		t.Fatal(err)
	}
	if _, err := e.store.GetMembrane(e.tok, pdids[0]); err != nil { // hit
		t.Fatal(err)
	}
	if st := e.store.Stats(); st.CacheHits == 0 {
		t.Errorf("reread did not hit: %+v", st)
	}
}

// TestCacheDeleteDropsEntry guards the no-resurrection rule on the physical
// delete path: a cached membrane must not outlive its record.
func TestCacheDeleteDropsEntry(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	pdid, err := e.store.Insert(e.tok, "user", "dora", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.store.GetMembrane(e.tok, pdid); err != nil { // cached
		t.Fatal(err)
	}
	if err := e.store.Delete(e.tok, pdid); err != nil {
		t.Fatal(err)
	}
	if _, err := e.store.GetMembrane(e.tok, pdid); !errors.Is(err, ErrNoRecord) && !errors.Is(err, ErrNoMembrane) {
		t.Fatalf("GetMembrane after delete err = %v, want no-record (cache served a ghost?)", err)
	}
}

// TestCacheDisabled checks the ablation switch: reads still work and the
// cache counters stay zero.
func TestCacheDisabled(t *testing.T) {
	e := newEnvWith(t, Config{MembraneCache: -1})
	e.mustCreateUser(t)
	pdid, err := e.store.Insert(e.tok, "user", "eve", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m, err := e.store.GetMembrane(e.tok, pdid)
		if err != nil {
			t.Fatal(err)
		}
		if m.PDID != pdid {
			t.Fatalf("got membrane of %s", m.PDID)
		}
	}
	st := e.store.Stats()
	if st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheEvictions != 0 {
		t.Errorf("disabled cache counted activity: %+v", st)
	}
	if st.MembraneReads != 3 {
		t.Errorf("MembraneReads = %d, want 3", st.MembraneReads)
	}
}

// TestGetMembranesBatch covers the batched read path: order preserved,
// identity right, and one bad pdid fails the batch.
func TestGetMembranesBatch(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	var pdids []string
	for _, subject := range []string{"s1", "s2", "s3"} {
		for i := 0; i < 2; i++ {
			pdid, err := e.store.Insert(e.tok, "user", subject, aliceRecord(), nil)
			if err != nil {
				t.Fatal(err)
			}
			pdids = append(pdids, pdid)
		}
	}
	ms, err := e.store.GetMembranes(e.tok, pdids)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(pdids) {
		t.Fatalf("got %d membranes, want %d", len(ms), len(pdids))
	}
	for i, m := range ms {
		if m.PDID != pdids[i] {
			t.Errorf("membrane %d: %s, want %s", i, m.PDID, pdids[i])
		}
	}
	if _, err := e.store.GetMembranes(e.tok, append(pdids, "user/ghost/99")); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("batch with ghost pdid err = %v, want ErrNoRecord", err)
	}
}

// TestSharedMembraneIsReadOnly checks the sharing contract of the cache:
// two hits on one pdid return the same pointer, and a membrane a reader
// holds never changes while MutateMembrane and Erase rewrite the record
// (they clone before they mutate). Run with -race: an in-place mutation of
// the shared value is also a data race with the readers below.
func TestSharedMembraneIsReadOnly(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	pdid, err := e.store.Insert(e.tok, "user", "hana", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.store.GetMembranes(e.tok, []string{pdid})
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.store.GetMembranes(e.tok, []string{pdid})
	if err != nil {
		t.Fatal(err)
	}
	held := first[0]
	if second[0] != held {
		t.Fatal("two cache hits on one pdid returned different membranes")
	}
	want, err := held.Encode()
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 30
	done := make(chan struct{})
	var wg sync.WaitGroup
	for rd := 0; rd < 2; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if got, err := held.Encode(); err != nil || !bytes.Equal(got, want) {
					t.Errorf("held membrane changed under a reader (err %v)", err)
					return
				}
				if _, err := e.store.GetMembranes(e.tok, []string{pdid}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 1; r <= rounds; r++ {
		if _, err := e.store.MutateMembrane(e.tok, pdid, func(m *membrane.Membrane) error {
			m.SetConsent("purpose1", membrane.Grant{Kind: membrane.GrantAll})
			if m.Collection == nil {
				m.Collection = make(map[string]string)
			}
			m.Collection[ctrKey] = strconv.Itoa(r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.store.Erase(e.tok, pdid); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	if got, err := held.Encode(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("held membrane changed (err %v)", err)
	}
	m, err := e.store.GetMembrane(e.tok, pdid)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Erased || membraneCtr(m) != rounds {
		t.Fatalf("stored membrane: erased %t ctr %d, want erased and ctr %d", m.Erased, membraneCtr(m), rounds)
	}
}
