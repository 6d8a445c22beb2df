package inode

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/simclock"
)

// TestActorSerializesOneInode hammers a single inode from many goroutines,
// each doing read-modify-write cycles on its own 64-byte slot of the SAME
// device block. A partial-block write reads the block image and rewrites it
// whole, so any two interleaved cycles that are not serialized lose one
// slot's update. The actor must serialize them: every slot ends at exactly
// its round count.
func TestActorSerializesOneInode(t *testing.T) {
	_, fs := newFS(t, 1024)
	ino, err := fs.AllocInode(ModeFile, "shared")
	if err != nil {
		t.Fatal(err)
	}
	// Materialize the block so every cycle is a partial overwrite.
	if _, err := fs.WriteAt(ino, 0, make([]byte, blockdev.BlockSize)); err != nil {
		t.Fatal(err)
	}

	const (
		workers = 8
		rounds  = 25
		slot    = 64
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			off := uint64(w * slot)
			buf := make([]byte, slot)
			for r := 0; r < rounds; r++ {
				if _, err := fs.ReadAt(ino, off, buf); err != nil {
					errs <- fmt.Errorf("worker %d read: %w", w, err)
					return
				}
				buf[0]++
				if _, err := fs.WriteAt(ino, off, buf); err != nil {
					errs <- fmt.Errorf("worker %d write: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	final := make([]byte, workers*slot)
	if _, err := fs.ReadAt(ino, 0, final); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		if got := final[w*slot]; got != rounds {
			t.Fatalf("worker %d slot = %d, want %d (lost updates: ops not serialized)", w, got, rounds)
		}
	}
}

// TestActorParkAndReEnsure checks the idaemon lifecycle: the registry
// drains to empty after sequential operations (daemons park on idle), and
// a parked inode's next operation re-ensures a fresh daemon that serves
// correctly — over many churn cycles.
func TestActorParkAndReEnsure(t *testing.T) {
	_, fs := newFS(t, 1024)
	ino, err := fs.AllocInode(ModeFile, "churn")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("park and re-ensure")
	for cycle := 0; cycle < 50; cycle++ {
		if _, err := fs.WriteAt(ino, 0, payload); err != nil {
			t.Fatalf("cycle %d write: %v", cycle, err)
		}
		got := make([]byte, len(payload))
		if _, err := fs.ReadAt(ino, 0, got); err != nil {
			t.Fatalf("cycle %d read: %v", cycle, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("cycle %d data corrupted", cycle)
		}
		if n := fs.LiveActors(); n != 0 {
			t.Fatalf("cycle %d: %d live actors after sequential op, want 0 (park broken)", cycle, n)
		}
	}
}

// TestTwoInodeOpsNoDeadlock cross-links two trees from two goroutines in
// opposite argument orders. Naive lock-in-argument-order would deadlock;
// the ascending-inode forwarding rule in execAll must not. The test fails by
// timeout if ownership ever cycles.
func TestTwoInodeOpsNoDeadlock(t *testing.T) {
	_, fs := newFS(t, 2048)
	t1, err := fs.AllocInode(ModeTree, "t1")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := fs.AllocInode(ModeTree, "t2")
	if err != nil {
		t.Fatal(err)
	}
	if t1 >= t2 {
		t.Fatalf("expected ascending allocation, got %d >= %d", t1, t2)
	}

	const rounds = 40
	run := func(parent, child Ino, name string) error {
		for i := 0; i < rounds; i++ {
			if err := fs.AddChild(parent, name, child); err != nil {
				return fmt.Errorf("add %s: %w", name, err)
			}
			if err := fs.RemoveChild(parent, name); err != nil {
				return fmt.Errorf("remove %s: %w", name, err)
			}
		}
		return nil
	}
	errs := make(chan error, 2)
	go func() { errs <- run(t1, t2, "fwd") }()
	go func() { errs <- run(t2, t1, "rev") }()
	timeout := time.After(60 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("deadlock: cross-order two-inode ops did not finish")
		}
	}
	for _, ino := range []Ino{t1, t2} {
		info, err := fs.Stat(ino)
		if err != nil {
			t.Fatal(err)
		}
		if info.Links != 0 {
			t.Fatalf("inode %d Links = %d after balanced add/remove, want 0", ino, info.Links)
		}
		kids, err := fs.Children(ino)
		if err != nil {
			t.Fatal(err)
		}
		if len(kids) != 0 {
			t.Fatalf("inode %d has %d children left", ino, len(kids))
		}
	}
}

// TestConcurrentRemoveSameName races two removers of one name; exactly one
// must win and the loser must see ErrChildNotFound (exercising the
// peek/retake revalidation path in RemoveChild).
func TestConcurrentRemoveSameName(t *testing.T) {
	_, fs := newFS(t, 1024)
	dir, err := fs.AllocInode(ModeTree, "dir")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		child, err := fs.AllocInode(ModeFile, "c")
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.AddChild(dir, "victim", child); err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 2)
		go func() { errs <- fs.RemoveChild(dir, "victim") }()
		go func() { errs <- fs.RemoveChild(dir, "victim") }()
		var wins, misses int
		for i := 0; i < 2; i++ {
			switch err := <-errs; {
			case err == nil:
				wins++
			case errors.Is(err, ErrChildNotFound):
				misses++
			default:
				t.Fatalf("round %d: unexpected error %v", round, err)
			}
		}
		if wins != 1 || misses != 1 {
			t.Fatalf("round %d: wins=%d misses=%d, want exactly one winner", round, wins, misses)
		}
		if err := fs.FreeInode(child); err != nil {
			t.Fatalf("round %d: free child: %v", round, err)
		}
	}
}

// TestCacheWriteBackCrashOrdering is the write-back crash-injection
// contract: with a deliberately tiny buffer cache (evictions churning
// throughout) the power is cut after a transaction's journal data blocks
// but before its commit record. No home block of the torn transaction may
// be durable — write-back must never reorder a block ahead of its commit
// record — and a fresh mount must recover exactly the pre-cut state.
func TestCacheWriteBackCrashOrdering(t *testing.T) {
	mem := blockdev.MustMem(512)
	cut := blockdev.NewPowerCut(mem)
	fs, err := Format(cut, Options{
		NInodes:       64,
		JournalBlocks: 64,
		Clock:         simclock.NewSim(simclock.Epoch),
		CacheBlocks:   4, // tiny: every operation forces evictions
	})
	if err != nil {
		t.Fatal(err)
	}
	ino, err := fs.AllocInode(ModeFile, "crash")
	if err != nil {
		t.Fatal(err)
	}
	committed := bytes.Repeat([]byte{0xA5}, blockdev.BlockSize)
	if _, err := fs.WriteAt(ino, 0, committed); err != nil {
		t.Fatal(err)
	}

	// Locate the data block that holds the file so the post-cut assertions
	// can watch it on the raw device.
	var info Info
	if info, err = fs.Stat(ino); err != nil || info.Size != blockdev.BlockSize {
		t.Fatalf("stat: %v %+v", err, info)
	}

	// The overwrite transaction journals [desc][data][itab] then the
	// commit record. Budget 2 lets desc+data through and cuts before the
	// commit block can land.
	cut.SetBudget(2)
	torn := bytes.Repeat([]byte{0x5A}, blockdev.BlockSize)
	if _, err := fs.WriteAt(ino, 0, torn); err == nil {
		t.Fatal("cut write reported success")
	} else if !errors.Is(err, blockdev.ErrIO) {
		t.Fatalf("cut write err = %v, want injected IO error", err)
	}

	// "Reboot": mount a fresh filesystem over the raw device and verify
	// the committed image survived and the torn image never became
	// durable anywhere outside the journal region.
	fs2, err := Mount(mem, simclock.NewSim(simclock.Epoch))
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	got := make([]byte, blockdev.BlockSize)
	if _, err := fs2.ReadAt(ino, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, committed) {
		t.Fatal("committed pre-cut image lost after recovery")
	}
	jStart, jLen := fs2.JournalRegion()
	for _, b := range blockdev.FindResidue(mem, torn[:16]) {
		if b < jStart || b >= jStart+jLen {
			t.Fatalf("torn write became durable at home block %d (write-back reordered around the WAL)", b)
		}
	}
}
