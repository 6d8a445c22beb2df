package inode

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/simclock"
	"repro/internal/xrand"
)

// txnsOf runs fn and reports how many journal transactions it committed.
func txnsOf(t *testing.T, fs *FS, fn func() error) uint64 {
	t.Helper()
	before := fs.JournalStats().TxnsCommitted
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return fs.JournalStats().TxnsCommitted - before
}

// TestLinkOpsCommitOneTxn pins the single-call tree operations at one
// journal transaction each (AddChild used to enqueue three, RemoveChild
// two).
func TestLinkOpsCommitOneTxn(t *testing.T) {
	_, fs := newFS(t, 1024)
	dir, err := fs.AllocInode(ModeTree, "dir")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.AddChild(RootIno, "dir", dir); err != nil {
		t.Fatal(err)
	}
	child, err := fs.AllocInode(ModeFile, "c")
	if err != nil {
		t.Fatal(err)
	}
	if n := txnsOf(t, fs, func() error { return fs.AddChild(dir, "c", child) }); n != 1 {
		t.Fatalf("AddChild committed %d txns, want 1", n)
	}
	if _, err := fs.Check(); err != nil {
		t.Fatal(err)
	}
	if n := txnsOf(t, fs, func() error { return fs.RemoveChild(dir, "c") }); n != 1 {
		t.Fatalf("RemoveChild committed %d txns, want 1", n)
	}
	// The unlinked child is now an orphan, which is what Check is for.
	if _, err := fs.Check(); err == nil {
		t.Fatal("Check accepted a live inode nothing links")
	}
}

// TestScopeIsOneTransaction drives a multi-step scope — three files created,
// written and linked under one tree — and checks that it commits exactly one
// transaction, that later steps see earlier ones, and that the result
// survives a remount intact.
func TestScopeIsOneTransaction(t *testing.T) {
	dev, fs := newFS(t, 1024)
	var dir Ino
	if err := fs.Do([]Ino{RootIno}, func(op *Op) (err error) {
		if dir, err = op.Alloc(ModeTree, "dir"); err != nil {
			return err
		}
		return op.Link(RootIno, "dir", dir)
	}); err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c"}
	inos := make([]Ino, len(names))
	n := txnsOf(t, fs, func() error {
		return fs.Do([]Ino{dir}, func(op *Op) error {
			for i, name := range names {
				ino, err := op.Alloc(ModeFile, name)
				if err != nil {
					return err
				}
				if err := op.Write(ino, 0, []byte("contents of "+name)); err != nil {
					return err
				}
				if err := op.Link(dir, name, ino); err != nil {
					return err
				}
				inos[i] = ino
			}
			// A later step sees the earlier ones: the duplicate is caught
			// against entries that exist only in the scope.
			if err := op.Link(dir, "a", inos[1]); !errors.Is(err, ErrChildExists) {
				return fmt.Errorf("duplicate link inside the scope: %v", err)
			}
			return nil
		})
	})
	if n != 1 {
		t.Fatalf("scope committed %d txns, want 1", n)
	}
	fs2, err := Mount(dev, simclock.NewSim(simclock.Epoch))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		got, err := fs2.Lookup(dir, name)
		if err != nil || got != inos[i] {
			t.Fatalf("Lookup(%q) = %d, %v; want %d", name, got, err, inos[i])
		}
		buf := make([]byte, 64)
		k, err := fs2.ReadAt(got, 0, buf)
		if err != nil || string(buf[:k]) != "contents of "+name {
			t.Fatalf("file %q = %q, %v", name, buf[:k], err)
		}
	}
	if _, err := fs2.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestScopeAbortLeavesNothing fails a scope after it has allocated inodes
// and blocks and linked them: nothing may be published, and a private claim
// must not have become durable through another transaction's image of the
// shared table block in the meantime.
func TestScopeAbortLeavesNothing(t *testing.T) {
	dev, fs := newFS(t, 1024)
	before, err := fs.Check()
	if err != nil {
		t.Fatal(err)
	}
	free := fs.FreeBlocks()
	boom := errors.New("boom")
	var claimed, other Ino
	err = fs.Do([]Ino{RootIno}, func(op *Op) (err error) {
		if claimed, err = op.Alloc(ModeFile, "private"); err != nil {
			return err
		}
		if err := op.Write(claimed, 0, bytes.Repeat([]byte{7}, 3*blockdev.BlockSize)); err != nil {
			return err
		}
		if err := op.Link(RootIno, "private", claimed); err != nil {
			return err
		}
		if _, err := fs.Stat(claimed); !errors.Is(err, ErrBadInode) {
			return fmt.Errorf("claimed inode visible before commit: %v", err)
		}
		// Another operation commits an image of the same table block while
		// the claim is open; it must skip the claimed slot.
		if other, err = fs.AllocInode(ModeFile, "other"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want the step error", err)
	}
	if other != claimed+1 {
		t.Fatalf("concurrent alloc got %d, want the slot after the claim (%d)", other, claimed+1)
	}
	if _, err := fs.Lookup(RootIno, "private"); !errors.Is(err, ErrChildNotFound) {
		t.Fatalf("aborted link visible: %v", err)
	}
	if got := fs.FreeBlocks(); got != free {
		t.Fatalf("FreeBlocks = %d after abort, want %d", got, free)
	}
	fs2, err := Mount(dev, simclock.NewSim(simclock.Epoch))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Stat(claimed); !errors.Is(err, ErrBadInode) {
		t.Fatalf("aborted claim is durable: Stat = %v", err)
	}
	if _, err := fs2.Stat(other); err != nil {
		t.Fatalf("committed neighbour lost: %v", err)
	}
	// The released slot is the lowest free one again.
	if err := fs.FreeInode(other); err != nil {
		t.Fatal(err)
	}
	if again, err := fs.AllocInode(ModeFile, ""); err != nil || again != claimed {
		t.Fatalf("alloc after abort = %d, %v; want %d", again, err, claimed)
	}
	if err := fs.FreeInode(claimed); err != nil {
		t.Fatal(err)
	}
	after, err := fs.Check()
	if err != nil || after != before {
		t.Fatalf("Check after abort = %+v, %v; want %+v", after, err, before)
	}
}

// TestScopeUndeclaredRejected checks that a step on an inode outside the
// declared set fails instead of mutating an inode whose lock is not held.
func TestScopeUndeclaredRejected(t *testing.T) {
	_, fs := newFS(t, 512)
	a, _ := fs.AllocInode(ModeFile, "a")
	b, _ := fs.AllocInode(ModeFile, "b")
	err := fs.Do([]Ino{a}, func(op *Op) error { return op.Write(b, 0, []byte("x")) })
	if !errors.Is(err, ErrNotDeclared) {
		t.Fatalf("undeclared write err = %v, want ErrNotDeclared", err)
	}
	if info, _ := fs.Stat(b); info.Size != 0 {
		t.Fatal("undeclared write landed")
	}
}

// TestReplaceInPlace checks Replace's block economy: a same-size rewrite
// keeps its block (and so logs no bitmap block), a shorter one frees only
// the surplus tail, and the contents are exactly the new bytes.
func TestReplaceInPlace(t *testing.T) {
	_, fs := newFS(t, 1024)
	ino, _ := fs.AllocInode(ModeFile, "m")
	replace := func(p []byte) error {
		return fs.Do([]Ino{ino}, func(op *Op) error { return op.Replace(ino, p) })
	}
	if err := replace(bytes.Repeat([]byte{1}, 3*blockdev.BlockSize)); err != nil {
		t.Fatal(err)
	}
	free := fs.FreeBlocks()
	logged := fs.JournalStats().BlocksLogged
	if err := replace(bytes.Repeat([]byte{2}, 3*blockdev.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if got := fs.FreeBlocks(); got != free {
		t.Fatalf("same-size replace moved FreeBlocks %d -> %d", free, got)
	}
	// Three data blocks and the inode table block; no bitmap block.
	if got := fs.JournalStats().BlocksLogged - logged; got != 4 {
		t.Fatalf("same-size replace logged %d blocks, want 4", got)
	}
	short := []byte("short")
	if err := replace(short); err != nil {
		t.Fatal(err)
	}
	if got := fs.FreeBlocks(); got != free+2 {
		t.Fatalf("shrinking replace freed %d blocks, want 2", got-free)
	}
	buf := make([]byte, blockdev.BlockSize)
	n, err := fs.ReadAt(ino, 0, buf)
	if err != nil || !bytes.Equal(buf[:n], short) {
		t.Fatalf("contents = %q, %v", buf[:n], err)
	}
}

// TestAllocatorHintsMatchNaiveScan runs a seeded alloc / free / abort
// script and checks every inode and block number handed out against the
// naive first-fit scan from the start of the table and the data region.
func TestAllocatorHintsMatchNaiveScan(t *testing.T) {
	_, fs := newFS(t, 1024)
	naiveBlock := func() uint64 {
		fs.metaMu.Lock()
		defer fs.metaMu.Unlock()
		for b := fs.sb.DataStart; b < fs.sb.NBlocks; b++ {
			if fs.bitmap[b/8]&(1<<(b%8)) == 0 {
				return b
			}
		}
		return 0
	}
	naiveInode := func() Ino {
		fs.metaMu.Lock()
		defer fs.metaMu.Unlock()
		for i := uint64(1); i < fs.sb.NInodes; i++ {
			if fs.itab[i].Mode == ModeFree && !fs.claimed[i] {
				return Ino(i)
			}
		}
		return 0
	}
	rng := xrand.New(22)
	boom := errors.New("abort")
	var live []Ino
	for step := 0; step < 400; step++ {
		switch k := rng.Intn(10); {
		case k < 5 || len(live) == 0: // allocate an inode with 0-3 blocks, sometimes aborting
			abort := k == 4
			nblocks := rng.Intn(4)
			var ino Ino
			err := fs.Do(nil, func(op *Op) error {
				want := naiveInode()
				got, err := op.Alloc(ModeFile, "")
				if err != nil {
					return err
				}
				if got != want {
					t.Fatalf("step %d: inode %d, naive scan says %d", step, got, want)
				}
				ino = got
				w, _ := op.inode(ino)
				for bi := 0; bi < nblocks; bi++ {
					want := naiveBlock()
					got, err := fs.bmap(op.m, &w.d, uint64(bi), true)
					if err != nil {
						return err
					}
					if got != want {
						t.Fatalf("step %d: block %d, naive scan says %d", step, got, want)
					}
				}
				w.d.Size = uint64(nblocks) * blockdev.BlockSize
				if abort {
					return boom
				}
				return nil
			})
			if abort {
				if !errors.Is(err, boom) {
					t.Fatal(err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, ino)
		case k < 8: // free a random live inode (pulls both hints down)
			i := rng.Intn(len(live))
			if err := fs.FreeInode(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		default: // shrink a random live inode to one block
			if err := fs.Truncate(live[rng.Intn(len(live))], blockdev.BlockSize); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestScopesOverlappingNoDeadlock runs scopes over overlapping declared
// sets, named in random order, against single-call operations on the same
// inodes. Ascending acquisition must keep lock waits acyclic (the test is
// bounded by go test -timeout), every link must balance, and every lock
// registry entry must have been dropped at the end.
func TestScopesOverlappingNoDeadlock(t *testing.T) {
	_, fs := newFS(t, 4096)
	const ntrees = 5
	trees := make([]Ino, ntrees)
	for i := range trees {
		var err error
		if trees[i], err = fs.AllocInode(ModeTree, "t"); err != nil {
			t.Fatal(err)
		}
		if err := fs.AddChild(RootIno, fmt.Sprintf("t%d", i), trees[i]); err != nil {
			t.Fatal(err)
		}
	}
	const (
		workers = 8
		rounds  = 30
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(w) + 1)
			for r := 0; r < rounds; r++ {
				perm := make([]int, ntrees)
				for i := range perm {
					perm[i] = i
				}
				for i := ntrees - 1; i > 0; i-- {
					j := rng.Intn(i + 1)
					perm[i], perm[j] = perm[j], perm[i]
				}
				a, b, c := trees[perm[0]], trees[perm[1]], trees[perm[2]]
				name := fmt.Sprintf("w%d", w)
				// A scope over three trees, declared in random order: a
				// file created under a, cross-linked from b and c.
				var f Ino
				err := fs.Do([]Ino{a, b, c}, func(op *Op) (err error) {
					if f, err = op.Alloc(ModeFile, name); err != nil {
						return err
					}
					if err := op.Write(f, 0, []byte(name)); err != nil {
						return err
					}
					for _, p := range []Ino{a, b, c} {
						if err := op.Link(p, name, f); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Errorf("worker %d create: %v", w, err)
					return
				}
				// Single-call operations on the same inodes, racing the
				// other workers' scopes.
				if _, err := fs.Children(b); err != nil {
					t.Errorf("worker %d children: %v", w, err)
					return
				}
				if err := fs.RemoveChild(c, name); err != nil {
					t.Errorf("worker %d remove: %v", w, err)
					return
				}
				if _, err := fs.WriteAt(f, 0, []byte("again")); err != nil {
					t.Errorf("worker %d write: %v", w, err)
					return
				}
				// And a scope that takes the file and its remaining parents
				// apart again, declared in the opposite order.
				err = fs.Do([]Ino{f, b, a}, func(op *Op) error {
					if err := op.Unlink(a, name, f); err != nil {
						return err
					}
					if err := op.Unlink(b, name, f); err != nil {
						return err
					}
					return op.Free(f)
				})
				if err != nil {
					t.Errorf("worker %d teardown: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, tr := range trees {
		kids, err := fs.Children(tr)
		if err != nil || len(kids) != 0 {
			t.Fatalf("tree %d: %d children left, %v", tr, len(kids), err)
		}
	}
	if n := fs.liveLocks(); n != 0 {
		t.Fatalf("%d live actors after all scopes finished, want 0", n)
	}
	if rep, err := fs.Check(); err != nil || rep.Inodes != ntrees+1 {
		t.Fatalf("Check = %+v, %v; want %d inodes", rep, err, ntrees+1)
	}
}

// TestStagedBitmapIsSnapshot: the journal and the buffer cache keep the
// bitmap image they are handed, so Format and every transaction must hand
// down a copy of the live bitmap. An allocation inside an open scope sets
// its bit in the live bitmap at once; the cached bitmap block must still
// read as the last committed image — right after Format, and after a
// commit that staged the block.
func TestStagedBitmapIsSnapshot(t *testing.T) {
	dev, fs := newFS(t, 1024)
	bitmap := func() []byte {
		buf := make([]byte, blockdev.BlockSize)
		if err := fs.dev.ReadBlock(fs.sb.BitmapStart, buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	boom := errors.New("boom")
	allocAndCheck := func(stage string) {
		t.Helper()
		committed := bitmap()
		err := fs.Do([]Ino{RootIno}, func(op *Op) error {
			ino, err := op.Alloc(ModeFile, "")
			if err != nil {
				return err
			}
			if err := op.Write(ino, 0, []byte{1}); err != nil {
				return err
			}
			if !bytes.Equal(bitmap(), committed) {
				return fmt.Errorf("%s: an uncommitted allocation shows in the cached bitmap block", stage)
			}
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatal(err)
		}
	}
	allocAndCheck("after Format")
	ino, err := fs.AllocInode(ModeFile, "f")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.AddChild(RootIno, "f", ino); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(ino, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	allocAndCheck("after a commit")
	if _, err := fs.Check(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(dev, simclock.NewSim(simclock.Epoch))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Check(); err != nil {
		t.Fatal(err)
	}
}
