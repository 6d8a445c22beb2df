package dbfs

import (
	"errors"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/cryptoshred"
	"repro/internal/inode"
	"repro/internal/lsm"
	"repro/internal/simclock"
)

// shardedEnv builds a DBFS over n inode filesystem instances, each on its
// own partition of one shared device — the same topology core.Boot wires
// for the PD disk.
type shardedEnv struct {
	dev   *blockdev.Mem
	fss   []*inode.FS
	store *Store
	tok   *lsm.Token
}

func newShardedEnv(t *testing.T, n int) *shardedEnv {
	t.Helper()
	const devBlocks = 8192
	dev := blockdev.MustMem(devBlocks)
	clock := simclock.NewSim(simclock.Epoch)
	per := uint64(devBlocks / n)
	fss := make([]*inode.FS, n)
	for i := range fss {
		part, err := blockdev.NewPartition(dev, uint64(i)*per, per)
		if err != nil {
			t.Fatalf("NewPartition %d: %v", i, err)
		}
		fss[i], err = inode.Format(part, inode.Options{NInodes: 1024, JournalBlocks: 64, Clock: clock})
		if err != nil {
			t.Fatalf("inode.Format %d: %v", i, err)
		}
	}
	auth, err := cryptoshred.NewAuthority(1024)
	if err != nil {
		t.Fatal(err)
	}
	guard := lsm.NewGuard()
	store, err := Create(fss, guard, cryptoshred.NewVault(auth.PublicKey()), clock, Config{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := store.CreateType(store.guard.Mint("boot", lsm.CapDBFS), userSchema()); err != nil {
		t.Fatalf("CreateType: %v", err)
	}
	return &shardedEnv{dev: dev, fss: fss, store: store, tok: guard.Mint("ded", lsm.CapDBFS)}
}

// TestShardedInsertRoutesAcrossInstances checks that subjects land on more
// than one instance, and that every record remains reachable through the
// usual lookups and listings.
func TestShardedInsertRoutesAcrossInstances(t *testing.T) {
	e := newShardedEnv(t, 4)
	const subjects = 32
	pdids := make([]string, 0, subjects)
	for i := 0; i < subjects; i++ {
		subj := "subj" + strconv.Itoa(i)
		pdid, err := e.store.Insert(e.tok, "user", subj, Record{
			"name":              S("user " + subj),
			"pwd":               S("secret"),
			"year_of_birthdate": I(1990),
		}, nil)
		if err != nil {
			t.Fatalf("Insert %s: %v", subj, err)
		}
		pdids = append(pdids, pdid)
	}
	// Routing actually spreads: more than one instance holds subjects.
	used := 0
	for i, fs := range e.store.fss {
		ents, err := fs.Children(e.store.subjectRoots[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("only %d of %d instances hold subjects; routing broken", used, len(e.store.fss))
	}
	// Every record readable; listings see the union.
	for _, pdid := range pdids {
		if _, err := e.store.GetRecord(e.tok, pdid); err != nil {
			t.Fatalf("GetRecord %s: %v", pdid, err)
		}
	}
	all, err := e.store.ListByType(e.tok, "user")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != subjects {
		t.Fatalf("ListByType = %d records, want %d", len(all), subjects)
	}
	subs, err := e.store.Subjects(e.tok)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != subjects {
		t.Fatalf("Subjects = %d, want %d", len(subs), subjects)
	}
}

// TestShardedConcurrentInsertErase hammers a 4-instance store from
// concurrent workers (run under -race) mixing inserts, reads and erases.
func TestShardedConcurrentInsertErase(t *testing.T) {
	e := newShardedEnv(t, 4)
	const workers = 8
	const perWorker = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				subj := "w" + strconv.Itoa(w) + "n" + strconv.Itoa(i)
				pdid, err := e.store.Insert(e.tok, "user", subj, Record{
					"name":              S("user " + subj),
					"pwd":               S("secret"),
					"year_of_birthdate": I(1990),
				}, nil)
				if err != nil {
					errs <- err
					return
				}
				if _, err := e.store.GetRecord(e.tok, pdid); err != nil {
					errs <- err
					return
				}
				if i%2 == 0 {
					if _, err := e.store.Erase(e.tok, pdid); err != nil {
						errs <- err
						return
					}
					if _, err := e.store.GetRecord(e.tok, pdid); !errors.Is(err, cryptoshred.ErrKeyDestroyed) {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := e.store.Stats()
	if st.Inserts != workers*perWorker {
		t.Fatalf("Inserts = %d, want %d", st.Inserts, workers*perWorker)
	}
	if st.Erasures != workers*perWorker/2 {
		t.Fatalf("Erasures = %d, want %d", st.Erasures, workers*perWorker/2)
	}
}

// TestShardedReopen remounts every partition and reopens the store,
// checking records survive with the same shard → instance routing.
func TestShardedReopen(t *testing.T) {
	e := newShardedEnv(t, 2)
	pdid, err := e.store.Insert(e.tok, "user", "carol", Record{
		"name":              S("Carol"),
		"pwd":               S("pw"),
		"year_of_birthdate": I(1984),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewSim(simclock.Epoch)
	per := e.dev.NumBlocks() / uint64(len(e.fss))
	fss2 := make([]*inode.FS, len(e.fss))
	for i := range fss2 {
		part, err := blockdev.NewPartition(e.dev, uint64(i)*per, per)
		if err != nil {
			t.Fatal(err)
		}
		if fss2[i], err = inode.Mount(part, clock); err != nil {
			t.Fatalf("Mount %d: %v", i, err)
		}
	}
	store2, err := Open(fss2, e.store.guard, e.store.vault, clock, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := store2.GetRecord(e.tok, pdid); err != nil {
		t.Fatalf("GetRecord after reopen: %v", err)
	}
	all, err := store2.ListByType(e.tok, "user")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0] != pdid {
		t.Fatalf("ListByType after reopen = %v, want [%s]", all, pdid)
	}
	// Reopening with a different instance count would change shard
	// routing and orphan records; the persisted shard config rejects it.
	if _, err := Open(fss2[:1], e.store.guard, e.store.vault, clock, Config{}); err == nil {
		t.Fatal("Open with wrong instance count succeeded; shard config check broken")
	}
}

// TestFirstTouchesOfTypeRace starts the first inserts of a fresh type for
// subjects on every shard of one partition at once, for several types in
// turn. The inserts hold different shard locks, so they race to make the
// partition's tables/<type> tree: every insert must succeed, the partition
// must hold exactly one tree per type, and ListByType must list every
// insert.
func TestFirstTouchesOfTypeRace(t *testing.T) {
	e := newShardedEnv(t, 4)
	const part = 1
	var subjects []string
	onShard := make(map[uint32]bool)
	for i := 0; len(subjects) < DefaultShards/len(e.fss); i++ {
		subj := "r" + strconv.Itoa(i)
		if sh := ShardOf(subj); int(sh)*len(e.fss)/DefaultShards == part && !onShard[sh] {
			onShard[sh] = true
			subjects = append(subjects, subj)
		}
	}
	const types = 8
	for ty := 0; ty < types; ty++ {
		sch := userSchema()
		sch.Name = "t" + strconv.Itoa(ty)
		if err := e.store.CreateType(e.tok, sch); err != nil {
			t.Fatal(err)
		}
		// Take the type's seq lease first, on partition 0, so the racing
		// inserts reach their first touch together.
		lease, err := e.store.Insert(e.tok, sch.Name, "frank", Record{"name": S("frank")}, nil)
		if err != nil {
			t.Fatal(err)
		}
		pdids := make([]string, len(subjects), len(subjects)+1)
		errs := make([]error, len(subjects))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, subj := range subjects {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				pdids[i], errs[i] = e.store.Insert(e.tok, sch.Name, subj, Record{"name": S(subj)}, nil)
			}()
		}
		close(start)
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("first %s insert for %s: %v", sch.Name, subjects[i], err)
			}
		}
		all, err := e.store.ListByType(e.tok, sch.Name)
		if err != nil {
			t.Fatal(err)
		}
		pdids = append(pdids, lease)
		sort.Strings(pdids)
		if !slices.Equal(all, pdids) {
			t.Fatalf("ListByType(%s) = %v, want %v", sch.Name, all, pdids)
		}
	}
	tables, err := e.fss[part].Children(e.store.tablesRoots[part])
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != types {
		t.Fatalf("partition %d tables tree = %v, want one tree per type", part, tables)
	}
	if _, err := e.fss[part].Check(); err != nil {
		t.Fatal(err)
	}
}
