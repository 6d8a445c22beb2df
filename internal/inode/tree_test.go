package inode

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/simclock"
)

// newUncachedFS formats a filesystem with the buffer cache disabled, so
// every block read is a device read.
func newUncachedFS(t *testing.T, blocks uint64) (*blockdev.Mem, *FS) {
	t.Helper()
	dev := blockdev.MustMem(blocks)
	fs, err := Format(dev, Options{NInodes: 256, JournalBlocks: 128, Clock: simclock.NewSim(simclock.Epoch), CacheBlocks: -1})
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return dev, fs
}

// fillTree creates a tree under the root holding n links to one file,
// named entry-00000 onward, and returns the tree and the file.
func fillTree(t *testing.T, fs *FS, name string, n int) (tree, file Ino) {
	t.Helper()
	err := fs.Do([]Ino{RootIno}, func(op *Op) (err error) {
		if tree, err = op.Alloc(ModeTree, name); err != nil {
			return err
		}
		if file, err = op.Alloc(ModeFile, name); err != nil {
			return err
		}
		if err := op.Link(RootIno, name, tree); err != nil {
			return err
		}
		return op.Link(RootIno, name+"-file", file)
	})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 256
	for lo := 0; lo < n; lo += batch {
		err := fs.Do([]Ino{tree, file}, func(op *Op) error {
			for i := lo; i < n && i < lo+batch; i++ {
				if err := op.Link(tree, fmt.Sprintf("entry-%05d", i), file); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tree, file
}

// bytesPerRun is testing.AllocsPerRun for allocated bytes.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	f()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestTreeIndexLookupCostIndependentOfSize pins the resident index's cost
// shape with counts, not time: once a tree's index is built, a lookup reads
// no block and allocates the same whatever the tree's size, and a link
// stages only the tail of the payload and allocates within 1.5x of a link
// into a small tree.
func TestTreeIndexLookupCostIndependentOfSize(t *testing.T) {
	type cost struct {
		lookupAllocs   float64
		linkAllocs     float64
		linkBytes      uint64
		linkDataBlocks uint64
		lookupDevReads uint64
	}
	measure := func(n int) cost {
		dev, fs := newUncachedFS(t, 4096)
		tree, file := fillTree(t, fs, "big", n)
		var c cost
		probe := fmt.Sprintf("entry-%05d", n/2)
		if got, err := fs.Lookup(tree, probe); err != nil || got != file {
			t.Fatalf("warm-up Lookup = %d, %v", got, err)
		}
		before := dev.Stats().Reads
		for i := 0; i < 100; i++ {
			if _, err := fs.Lookup(tree, fmt.Sprintf("entry-%05d", i%n)); err != nil {
				t.Fatal(err)
			}
		}
		c.lookupDevReads = dev.Stats().Reads - before
		c.lookupAllocs = testing.AllocsPerRun(100, func() {
			if _, err := fs.Lookup(tree, probe); err != nil {
				t.Fatal(err)
			}
		})

		// One link: the blocks it logs are the payload tail plus the
		// table block naming tree and file (allocated together, so they
		// share it) and, when the tail needs a fresh block, one bitmap
		// block.
		logged, free := fs.JournalStats().BlocksLogged, fs.FreeBlocks()
		if err := fs.AddChild(tree, "one-more", file); err != nil {
			t.Fatal(err)
		}
		meta := uint64(1)
		if fs.FreeBlocks() != free {
			meta++
		}
		c.linkDataBlocks = fs.JournalStats().BlocksLogged - logged - meta

		next := 0
		link := func() {
			next++
			if err := fs.AddChild(tree, fmt.Sprintf("more-%05d", next), file); err != nil {
				t.Fatal(err)
			}
		}
		c.linkAllocs = testing.AllocsPerRun(50, link)
		c.linkBytes = bytesPerRun(50, link)
		if _, err := fs.Check(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	small, large := measure(16), measure(1024)
	t.Logf("16 entries: %+v", small)
	t.Logf("1024 entries: %+v", large)
	for _, c := range []cost{small, large} {
		if c.lookupDevReads != 0 {
			t.Errorf("100 warm lookups read %d device blocks, want 0", c.lookupDevReads)
		}
		if c.linkDataBlocks > 2 {
			t.Errorf("a link staged %d data blocks, want at most 2", c.linkDataBlocks)
		}
	}
	if small.lookupAllocs != large.lookupAllocs {
		t.Errorf("lookup allocs: %v at 16 entries, %v at 1024; want equal", small.lookupAllocs, large.lookupAllocs)
	}
	if large.linkAllocs > 1.5*small.linkAllocs {
		t.Errorf("link allocs: %v at 16 entries, %v at 1024; want within 1.5x", small.linkAllocs, large.linkAllocs)
	}
	if float64(large.linkBytes) > 1.5*float64(small.linkBytes) {
		t.Errorf("link bytes: %d at 16 entries, %d at 1024; want within 1.5x", small.linkBytes, large.linkBytes)
	}
}

// treeState is what Lookup and Children report for a tree.
func treeState(t *testing.T, fs *FS, tree Ino, names []string) ([]Dirent, map[string]error) {
	t.Helper()
	kids, err := fs.Children(tree)
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[string]error)
	for _, n := range names {
		_, found[n] = fs.Lookup(tree, n)
	}
	return kids, found
}

// TestTreeIndexAbortedScopeChangesNothing links and unlinks inside a scope
// that then fails: Lookup and Children must report the tree exactly as
// before, and the index must still match the disk.
func TestTreeIndexAbortedScopeChangesNothing(t *testing.T) {
	_, fs := newFS(t, 1024)
	tree, file := fillTree(t, fs, "t", 40)
	probe := []string{"entry-00000", "entry-00017", "entry-00039", "new-a", "new-b"}
	kids, found := treeState(t, fs, tree, probe)
	boom := errors.New("boom")
	err := fs.Do([]Ino{tree, file}, func(op *Op) error {
		if err := op.Link(tree, "new-a", file); err != nil {
			return err
		}
		if err := op.Unlink(tree, "entry-00017", file); err != nil {
			return err
		}
		if err := op.Link(tree, "new-b", file); err != nil {
			return err
		}
		if err := op.Unlink(tree, "entry-00039", file); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want the step error", err)
	}
	kids2, found2 := treeState(t, fs, tree, probe)
	if !reflect.DeepEqual(kids, kids2) || !reflect.DeepEqual(found, found2) {
		t.Fatalf("aborted scope changed the tree:\nbefore %v %v\nafter  %v %v", kids, found, kids2, found2)
	}
	if _, err := fs.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestTreeIndexSpilledScope runs scopes that spill past one transaction:
// a large file write followed by links, and an unlink at the front of a
// tree whose rewritten tail alone outgrows one transaction. The index must
// match the disk after each, and after a remount.
func TestTreeIndexSpilledScope(t *testing.T) {
	dev, fs := newFS(t, 4096)
	tree, file := fillTree(t, fs, "t", 8)
	var big Ino
	before := fs.JournalStats().TxnsCommitted
	err := fs.Do([]Ino{tree, file}, func(op *Op) (err error) {
		if err := op.Unlink(tree, "entry-00003", file); err != nil {
			return err
		}
		if big, err = op.Alloc(ModeFile, "big"); err != nil {
			return err
		}
		if err := op.Write(big, 0, make([]byte, (fs.maxChunk+8)*blockdev.BlockSize)); err != nil {
			return err
		}
		if err := op.Link(tree, "big", big); err != nil {
			return err
		}
		return op.Link(tree, "again", file)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := fs.JournalStats().TxnsCommitted - before; n < 2 {
		t.Fatalf("scope committed %d txns, want a spill", n)
	}
	if got, err := fs.Lookup(tree, "big"); err != nil || got != big {
		t.Fatalf("Lookup(big) = %d, %v", got, err)
	}
	if _, err := fs.Lookup(tree, "entry-00003"); !errors.Is(err, ErrChildNotFound) {
		t.Fatalf("unlinked entry still found: %v", err)
	}
	if _, err := fs.Check(); err != nil {
		t.Fatal(err)
	}

	// A tree whose payload is larger than one transaction carries, then an
	// unlink of its first entry: the tail rewrite itself spills.
	wide, wfile := fillTree(t, fs, "wide", (fs.maxChunk+4)*blockdev.BlockSize/21)
	before = fs.JournalStats().TxnsCommitted
	if err := fs.RemoveChild(wide, "entry-00000"); err != nil {
		t.Fatal(err)
	}
	if n := fs.JournalStats().TxnsCommitted - before; n < 2 {
		t.Fatalf("front unlink committed %d txns, want a spill", n)
	}
	if err := fs.AddChild(wide, "entry-00000", wfile); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Check(); err != nil {
		t.Fatal(err)
	}
	want, _ := fs.Children(wide)
	fs2, err := Mount(dev, simclock.NewSim(simclock.Epoch))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.Children(wide)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("remounted tree differs: %d entries, %v; want %d", len(got), err, len(want))
	}
}

// TestTreeIndexFreedTreeStartsEmpty frees a tree whose index is resident
// and reallocates its slot as a tree: the new tree must start empty.
func TestTreeIndexFreedTreeStartsEmpty(t *testing.T) {
	_, fs := newFS(t, 1024)
	tree, file := fillTree(t, fs, "t", 5)
	if _, err := fs.Lookup(tree, "entry-00002"); err != nil {
		t.Fatal(err)
	}
	err := fs.Do([]Ino{RootIno, tree, file}, func(op *Op) error {
		for i := 0; i < 5; i++ {
			if err := op.Unlink(tree, fmt.Sprintf("entry-%05d", i), file); err != nil {
				return err
			}
		}
		if err := op.Unlink(RootIno, "t", tree); err != nil {
			return err
		}
		return op.Free(tree)
	})
	if err != nil {
		t.Fatal(err)
	}
	again, err := fs.AllocInode(ModeTree, "again")
	if err != nil || again != tree {
		t.Fatalf("realloc = %d, %v; want slot %d", again, err, tree)
	}
	if err := fs.AddChild(RootIno, "again", again); err != nil {
		t.Fatal(err)
	}
	if kids, err := fs.Children(again); err != nil || len(kids) != 0 {
		t.Fatalf("reallocated tree has %v, %v; want no children", kids, err)
	}
	if _, err := fs.Lookup(again, "entry-00002"); !errors.Is(err, ErrChildNotFound) {
		t.Fatalf("reallocated tree resolves an old name: %v", err)
	}
	if err := fs.AddChild(again, "fresh", file); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestTreeIndexCheckCatchesStaleIndex corrupts a resident index behind the
// scope's back: Check must report it.
func TestTreeIndexCheckCatchesStaleIndex(t *testing.T) {
	for name, corrupt := range map[string]func(*treeIndex){
		"entry": func(idx *treeIndex) { idx.ents[1].Ino++ },
		"map":   func(idx *treeIndex) { idx.inos["entry-00001"]++ },
		"short": func(idx *treeIndex) { idx.ents = idx.ents[:2] },
	} {
		t.Run(name, func(t *testing.T) {
			_, fs := newFS(t, 1024)
			tree, _ := fillTree(t, fs, "t", 3)
			if _, err := fs.Check(); err != nil {
				t.Fatal(err)
			}
			fs.metaMu.Lock()
			corrupt(fs.trees[tree])
			fs.metaMu.Unlock()
			if _, err := fs.Check(); err == nil {
				t.Fatal("Check accepted a stale index")
			}
		})
	}
}

// TestTreeIndexConcurrentReadersAndWriters races Lookup and Children
// against AddChild and RemoveChild, on one tree and across trees. Every
// name belongs to one writer, so a reader that finds it must find the
// writer's inode, and every Children listing must be duplicate-free.
func TestTreeIndexConcurrentReadersAndWriters(t *testing.T) {
	_, fs := newFS(t, 4096)
	const (
		ntrees  = 3
		writers = 4
		rounds  = 25
	)
	trees := make([]Ino, ntrees)
	files := make([]Ino, writers)
	for i := range trees {
		trees[i], _ = fillTree(t, fs, fmt.Sprintf("t%d", i), 20)
	}
	for w := range files {
		var err error
		if files[w], err = fs.AllocInode(ModeFile, "w"); err != nil {
			t.Fatal(err)
		}
		if err := fs.AddChild(RootIno, fmt.Sprintf("w%d", w), files[w]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Writer 0 and 1 share tree 0; the others spread over all.
				tree := trees[(w*r)%ntrees]
				if w < 2 {
					tree = trees[0]
				}
				name := fmt.Sprintf("w%d-r%d", w, r)
				if err := fs.AddChild(tree, name, files[w]); err != nil {
					t.Errorf("AddChild %s: %v", name, err)
					return
				}
				if r%2 == 0 {
					if err := fs.RemoveChild(tree, name); err != nil {
						t.Errorf("RemoveChild %s: %v", name, err)
						return
					}
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for rd := 0; rd < 3; rd++ {
		readers.Add(1)
		go func(rd int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tree := trees[(rd+i)%ntrees]
				kids, err := fs.Children(tree)
				if err != nil {
					t.Errorf("Children: %v", err)
					return
				}
				seen := make(map[string]bool, len(kids))
				for _, k := range kids {
					if seen[k.Name] {
						t.Errorf("Children lists %q twice", k.Name)
						return
					}
					seen[k.Name] = true
				}
				w, r := i%writers, i%rounds
				if got, err := fs.Lookup(tree, fmt.Sprintf("w%d-r%d", w, r)); err == nil && got != files[w] {
					t.Errorf("Lookup w%d-r%d = %d, want %d", w, r, got, files[w])
					return
				} else if err != nil && !errors.Is(err, ErrChildNotFound) {
					t.Errorf("Lookup: %v", err)
					return
				}
			}
		}(rd)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	if _, err := fs.Check(); err != nil {
		t.Fatal(err)
	}
}
