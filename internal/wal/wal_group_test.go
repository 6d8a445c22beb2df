package wal

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/blockdev"
)

// enqueueOne seals a one-block transaction writing fill(v) to home block n.
func enqueueOne(t *testing.T, l *Log, n uint64, v byte) *Ticket {
	t.Helper()
	tx := l.Begin()
	if err := tx.Write(n, fill(v)); err != nil {
		t.Fatal(err)
	}
	tk, err := tx.Enqueue()
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

// holdCommitter waits until no committer runs, then marks one as running
// so that Enqueue starts none: the transactions enqueued next wait in the
// queue together. The returned function starts the committer, which takes
// them as one commit group.
func holdCommitter(l *Log) (start func()) {
	for {
		l.mu.Lock()
		if !l.committing {
			l.committing = true
			l.mu.Unlock()
			return func() { go l.committer() }
		}
		l.mu.Unlock()
		runtime.Gosched()
	}
}

// TestGroupCommitCoalesces verifies that transactions queued together
// share one commit group (and one flush), and that every image still
// reaches its home block.
func TestGroupCommitCoalesces(t *testing.T) {
	dev := blockdev.MustMem(64)
	l, err := Open(dev, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	start := holdCommitter(l)
	tickets := make([]*Ticket, 4)
	for i := range tickets {
		tickets[i] = enqueueOne(t, l, uint64(50+i), byte(i+1))
	}
	start()
	for i, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}

	s := l.Stats()
	if s.TxnsCommitted != 4 {
		t.Fatalf("TxnsCommitted = %d, want 4", s.TxnsCommitted)
	}
	if s.GroupCommits != 1 {
		t.Fatalf("GroupCommits = %d, want 1 (all txns queued together)", s.GroupCommits)
	}
	if s.MaxGroupTxns != 4 {
		t.Fatalf("MaxGroupTxns = %d, want 4", s.MaxGroupTxns)
	}
	got := make([]byte, blockdev.BlockSize)
	for i := 0; i < 4; i++ {
		if err := dev.ReadBlock(uint64(50+i), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fill(byte(i+1))) {
			t.Fatalf("block %d not checkpointed", 50+i)
		}
	}
}

// TestGroupReplayRestoresAllTxns scrubs the home blocks of a multi-txn
// group and checks recovery replays every member from the shared commit
// record.
func TestGroupReplayRestoresAllTxns(t *testing.T) {
	dev := blockdev.MustMem(64)
	l, err := Open(dev, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	start := holdCommitter(l)
	tk1 := enqueueOne(t, l, 50, 0xA1)
	tk2 := enqueueOne(t, l, 51, 0xB2)
	start()
	if err := tk1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := tk2.Wait(); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.GroupCommits != 1 {
		t.Fatalf("GroupCommits = %d, want 1", s.GroupCommits)
	}
	// Crash before checkpoint reached home: clobber both home blocks.
	zero := make([]byte, blockdev.BlockSize)
	if err := dev.WriteBlock(50, zero); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteBlock(51, zero); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dev, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	n, err := l2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Recover replayed %d txns, want 2 (whole group)", n)
	}
	got := make([]byte, blockdev.BlockSize)
	if err := dev.ReadBlock(50, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fill(0xA1)) {
		t.Fatal("first group member not replayed")
	}
	if err := dev.ReadBlock(51, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fill(0xB2)) {
		t.Fatal("second group member not replayed")
	}
}

// TestCrashMidGroupCommit is the crash-injection contract: the device dies
// after a group's descriptors and data blocks are on disk but before its
// commit marker. Replay must discard the torn group entirely while keeping
// every earlier sealed group.
func TestCrashMidGroupCommit(t *testing.T) {
	mem := blockdev.MustMem(64)
	// Earlier group: one txn, one data block = 3 journal writes + 1
	// checkpoint write.
	cut := blockdev.NewPowerCut(mem)
	cut.SetBudget(4)
	l, err := Open(cut, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := enqueueOne(t, l, 40, 0x40).Wait(); err != nil {
		t.Fatalf("earlier group: %v", err)
	}

	// Torn group: two txns, one data block each. Journal layout is
	// [desc1][data1][desc2][data2][commit]; a budget of 4 cuts the power
	// after data2, before the commit marker.
	cut.SetBudget(4)
	start := holdCommitter(l)
	tk1 := enqueueOne(t, l, 50, 0x51)
	tk2 := enqueueOne(t, l, 51, 0x52)
	start()
	err1, err2 := tk1.Wait(), tk2.Wait()
	if err1 == nil || err2 == nil {
		t.Fatalf("cut group committed: err1=%v err2=%v", err1, err2)
	}
	if !errors.Is(err1, blockdev.ErrIO) {
		t.Fatalf("err1 = %v, want injected IO error", err1)
	}
	// The log is now aborted: further commits must refuse instead of
	// persisting transactions that may depend on the failed group.
	tx := l.Begin()
	if err := tx.Write(52, fill(0x53)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrJournalAborted) {
		t.Fatalf("commit after abort err = %v, want ErrJournalAborted", err)
	}

	// "Reboot": recover a fresh log over the raw device.
	l2, err := Open(mem, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	n, err := l2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Recover replayed %d txns, want 1 (earlier group only)", n)
	}
	got := make([]byte, blockdev.BlockSize)
	if err := mem.ReadBlock(40, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fill(0x40)) {
		t.Fatal("earlier group lost")
	}
	zero := make([]byte, blockdev.BlockSize)
	for _, b := range []uint64{50, 51} {
		if err := mem.ReadBlock(b, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, zero) {
			t.Fatalf("torn group leaked into home block %d", b)
		}
	}
}

// gatedDev blocks every write until the gate channel is closed, freezing
// the committer mid flush so tests can observe the pre-checkpoint state.
type gatedDev struct {
	dev  blockdev.Device
	gate chan struct{}
}

func (g *gatedDev) ReadBlock(n uint64, buf []byte) error { return g.dev.ReadBlock(n, buf) }
func (g *gatedDev) NumBlocks() uint64                    { return g.dev.NumBlocks() }
func (g *gatedDev) Sync() error                          { return g.dev.Sync() }
func (g *gatedDev) Stats() blockdev.Stats                { return g.dev.Stats() }
func (g *gatedDev) WriteBlock(n uint64, data []byte) error {
	<-g.gate
	return g.dev.WriteBlock(n, data)
}

// TestReadThroughOverlay checks that an enqueued-but-not-checkpointed image
// is visible through ReadThrough, and that the overlay drains after the
// group lands.
func TestReadThroughOverlay(t *testing.T) {
	mem := blockdev.MustMem(64)
	gate := make(chan struct{})
	l, err := Open(&gatedDev{dev: mem, gate: gate}, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	tx := l.Begin()
	if err := tx.Write(40, fill(0xCD)); err != nil {
		t.Fatal(err)
	}
	tk, err := tx.Enqueue()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockdev.BlockSize)
	if err := l.ReadThrough(40, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fill(0xCD)) {
		t.Fatal("ReadThrough missed the in-flight image")
	}
	if err := mem.ReadBlock(40, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, blockdev.BlockSize)) {
		t.Fatal("device already holds the image; gate broken")
	}
	close(gate)
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	l.Barrier()
	if err := l.ReadThrough(40, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fill(0xCD)) {
		t.Fatal("image lost after checkpoint")
	}
}

// TestConcurrentCommitStress hammers the log from many goroutines; every
// image must land, and batching must actually occur (fewer groups than
// transactions) without any ordering violation on a shared block.
func TestConcurrentCommitStress(t *testing.T) {
	dev := blockdev.MustMem(256)
	l, err := Open(dev, 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := l.Begin()
				if err := tx.Write(uint64(200+w), fill(byte(w+1))); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
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
	s := l.Stats()
	if s.TxnsCommitted != workers*perWorker {
		t.Fatalf("TxnsCommitted = %d, want %d", s.TxnsCommitted, workers*perWorker)
	}
	if s.GroupCommits == 0 || s.GroupCommits > s.TxnsCommitted {
		t.Fatalf("GroupCommits = %d out of range (1..%d)", s.GroupCommits, s.TxnsCommitted)
	}
	got := make([]byte, blockdev.BlockSize)
	for w := 0; w < workers; w++ {
		if err := dev.ReadBlock(uint64(200+w), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fill(byte(w+1))) {
			t.Fatalf("worker %d block corrupted", w)
		}
	}
}
