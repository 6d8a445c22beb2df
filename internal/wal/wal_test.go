package wal

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/blockdev"
)

// fill returns a block-sized buffer whose bytes all equal v.
func fill(v byte) []byte {
	b := make([]byte, blockdev.BlockSize)
	for i := range b {
		b[i] = v
	}
	return b
}

func newLog(t *testing.T, devBlocks, start, length uint64) (*blockdev.Mem, *Log) {
	t.Helper()
	dev := blockdev.MustMem(devBlocks)
	l, err := Open(dev, start, length)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return dev, l
}

func TestOpenValidation(t *testing.T) {
	dev := blockdev.MustMem(10)
	if _, err := Open(dev, 0, 2); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("Open with 2 blocks err = %v, want ErrBadRegion", err)
	}
	if _, err := Open(dev, 8, 3); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("Open beyond device err = %v, want ErrBadRegion", err)
	}
}

func TestCommitAppliesToHome(t *testing.T) {
	dev, l := newLog(t, 32, 0, 16)
	tx := l.Begin()
	if err := tx.Write(20, fill(0xAA)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(21, fill(0xBB)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	got := make([]byte, blockdev.BlockSize)
	if err := dev.ReadBlock(20, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fill(0xAA)) {
		t.Fatal("block 20 not checkpointed")
	}
	if err := dev.ReadBlock(21, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fill(0xBB)) {
		t.Fatal("block 21 not checkpointed")
	}
	s := l.Stats()
	if s.TxnsCommitted != 1 || s.BlocksLogged != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEmptyCommitIsNoop(t *testing.T) {
	dev, l := newLog(t, 16, 0, 8)
	if err := l.Begin().Commit(); err != nil {
		t.Fatalf("empty Commit: %v", err)
	}
	if s := dev.Stats(); s.Writes != 0 {
		t.Fatalf("empty commit wrote %d blocks", s.Writes)
	}
}

func TestTxnReuseFails(t *testing.T) {
	_, l := newLog(t, 16, 0, 8)
	tx := l.Begin()
	if err := tx.Write(10, fill(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double Commit err = %v, want ErrTxnDone", err)
	}
	if err := tx.Write(11, fill(2)); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Write after Commit err = %v, want ErrTxnDone", err)
	}
}

func TestAbortDiscards(t *testing.T) {
	dev, l := newLog(t, 16, 0, 8)
	tx := l.Begin()
	if err := tx.Write(12, fill(7)); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Commit after Abort err = %v, want ErrTxnDone", err)
	}
	got := make([]byte, blockdev.BlockSize)
	if err := dev.ReadBlock(12, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, blockdev.BlockSize)) {
		t.Fatal("aborted txn reached home location")
	}
}

func TestReadYourWrites(t *testing.T) {
	_, l := newLog(t, 16, 0, 8)
	tx := l.Begin()
	if err := tx.Write(13, fill(9)); err != nil {
		t.Fatal(err)
	}
	img := make([]byte, blockdev.BlockSize)
	ok := tx.Read(13, img)
	if !ok || !bytes.Equal(img, fill(9)) {
		t.Fatal("Read did not observe buffered write")
	}
	if ok := tx.Read(14, img); ok {
		t.Fatal("Read observed a block never written")
	}
}

func TestRewriteSameBlockInTxn(t *testing.T) {
	dev, l := newLog(t, 16, 0, 8)
	tx := l.Begin()
	if err := tx.Write(13, fill(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(13, fill(2)); err != nil {
		t.Fatal(err)
	}
	if tx.Len() != 1 {
		t.Fatalf("Len = %d after rewriting same block, want 1", tx.Len())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockdev.BlockSize)
	if err := dev.ReadBlock(13, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fill(2)) {
		t.Fatal("latest image did not win")
	}
}

func TestJournalRetainsOldImages(t *testing.T) {
	// The motivating GDPR violation: after the higher layer overwrites a
	// record, the journal region still holds the old plaintext image.
	dev, l := newLog(t, 64, 0, 32)
	secret := []byte("pd:alice:medical")
	img := make([]byte, blockdev.BlockSize)
	copy(img, secret)

	tx := l.Begin()
	if err := tx.Write(40, img); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// "Delete" by overwriting home with zeros in a new transaction.
	tx = l.Begin()
	if err := tx.Write(40, make([]byte, blockdev.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	hits := blockdev.FindResidue(dev, secret)
	if len(hits) == 0 {
		t.Fatal("expected journal residue of deleted data, found none")
	}
	start, length := l.start, l.length
	inJournal := false
	for _, h := range hits {
		if h >= start && h < start+length {
			inJournal = true
		}
		if h == 40 {
			t.Fatal("home block still holds the secret after overwrite")
		}
	}
	if !inJournal {
		t.Fatalf("residue hits %v not attributed to journal region [%d,%d)", hits, start, start+length)
	}
}

func TestRecoverReplaysCommitted(t *testing.T) {
	dev, l := newLog(t, 64, 0, 32)
	tx := l.Begin()
	if err := tx.Write(50, fill(0x5A)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Simulate crash before checkpoint reached home: clobber home block.
	if err := dev.WriteBlock(50, make([]byte, blockdev.BlockSize)); err != nil {
		t.Fatal(err)
	}
	// Remount: a fresh Log over the same region must replay the txn.
	l2, err := Open(dev, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	n, err := l2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if n != 1 {
		t.Fatalf("Recover replayed %d txns, want 1", n)
	}
	got := make([]byte, blockdev.BlockSize)
	if err := dev.ReadBlock(50, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fill(0x5A)) {
		t.Fatal("recovery did not restore committed image")
	}
}

func TestRecoverSkipsTornTxn(t *testing.T) {
	dev, l := newLog(t, 64, 0, 32)
	tx := l.Begin()
	if err := tx.Write(50, fill(0x5A)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the commit block (journal block index 2 for the first txn).
	if err := dev.WriteBlock(2, make([]byte, blockdev.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteBlock(50, make([]byte, blockdev.BlockSize)); err != nil {
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
	if n != 0 {
		t.Fatalf("Recover replayed %d torn txns, want 0", n)
	}
	got := make([]byte, blockdev.BlockSize)
	if err := dev.ReadBlock(50, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, blockdev.BlockSize)) {
		t.Fatal("torn txn was replayed")
	}
}

func TestRecoverOrdersByTxid(t *testing.T) {
	dev, l := newLog(t, 64, 0, 32)
	for i, v := range []byte{1, 2, 3} {
		tx := l.Begin()
		if err := tx.Write(60, fill(v)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if err := dev.WriteBlock(60, make([]byte, blockdev.BlockSize)); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dev, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Recover(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockdev.BlockSize)
	if err := dev.ReadBlock(60, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fill(3)) {
		t.Fatalf("replay order wrong: block 60 byte0 = %d, want 3", got[0])
	}
}

func TestRecoverAdvancesSeq(t *testing.T) {
	dev, l := newLog(t, 64, 0, 32)
	tx := l.Begin()
	if err := tx.Write(60, fill(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dev, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Recover(); err != nil {
		t.Fatal(err)
	}
	// A new transaction after recovery must not collide with the replayed
	// txid: commit one and recover again — both must survive ordering.
	tx = l2.Begin()
	if err := tx.Write(60, fill(9)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dev, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l3.Recover(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockdev.BlockSize)
	if err := dev.ReadBlock(60, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 {
		t.Fatalf("post-recovery txn lost: byte0 = %d, want 9", got[0])
	}
}

func TestWrapAround(t *testing.T) {
	dev, l := newLog(t, 64, 0, 8) // tiny journal: 8 blocks
	// Each txn uses 3 journal blocks; the third txn forces a wrap.
	for i := byte(1); i <= 5; i++ {
		tx := l.Begin()
		if err := tx.Write(uint64(50+i), fill(i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	got := make([]byte, blockdev.BlockSize)
	for i := byte(1); i <= 5; i++ {
		if err := dev.ReadBlock(uint64(50+i), got); err != nil {
			t.Fatal(err)
		}
		if got[0] != i {
			t.Fatalf("block %d byte0 = %d, want %d", 50+i, got[0], i)
		}
	}
}

func TestTxnTooLargeForJournal(t *testing.T) {
	_, l := newLog(t, 600, 0, 4)
	tx := l.Begin()
	for i := uint64(0); i < 3; i++ {
		if err := tx.Write(100+i, fill(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); !errors.Is(err, ErrJournalFull) {
		t.Fatalf("oversized txn err = %v, want ErrJournalFull", err)
	}
}

func TestMaxBlocksPerTxnEnforced(t *testing.T) {
	_, l := newLog(t, 1024, 0, 600)
	tx := l.Begin()
	for i := 0; i < MaxBlocksPerTxn; i++ {
		if err := tx.Write(uint64(600+i), fill(1)); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	err := tx.Write(9999, fill(1))
	if !errors.Is(err, ErrTxnTooLarge) {
		t.Fatalf("over-limit Write err = %v, want ErrTxnTooLarge", err)
	}
}

// TestRecoverRejectsCorruptGroup flips one byte of a committed group inside
// the journal region — in a data block, and separately in the descriptor's
// tag area — with the checkpoint lost. Magic, type, tag count, transaction
// count and txid all still parse, so only the checksum can reject the
// group: Recover must replay nothing and the home blocks keep their old
// contents.
func TestRecoverRejectsCorruptGroup(t *testing.T) {
	// Journal layout of the one group: descriptor at 0, data at 1 and 2,
	// commit at 3. The tag of home block 50 starts at headerSize;
	// flipping its low byte's bit 2 would redirect it to block 54.
	cases := []struct {
		name   string
		blk    uint64
		off    int
		replay int
	}{
		{"intact", 0, -1, 1},
		{"data block", 2, 1234, 0},
		{"descriptor tag", 0, headerSize, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev, l := newLog(t, 64, 0, 32)
			tx := l.Begin()
			if err := tx.Write(50, fill(0x5A)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(51, fill(0x5B)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			// Crash before the checkpoint reached home: old contents.
			for _, h := range []uint64{50, 51} {
				if err := dev.WriteBlock(h, fill(0x11)); err != nil {
					t.Fatal(err)
				}
			}
			if tc.off >= 0 {
				blk := make([]byte, blockdev.BlockSize)
				if err := dev.ReadBlock(tc.blk, blk); err != nil {
					t.Fatal(err)
				}
				blk[tc.off] ^= 0x04
				if err := dev.WriteBlock(tc.blk, blk); err != nil {
					t.Fatal(err)
				}
			}
			l2, err := Open(dev, 0, 32)
			if err != nil {
				t.Fatal(err)
			}
			n, err := l2.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if n != tc.replay {
				t.Fatalf("Recover replayed %d txns, want %d", n, tc.replay)
			}
			want := map[uint64][]byte{50: fill(0x11), 51: fill(0x11), 54: fill(0)}
			if tc.replay == 1 {
				want[50], want[51] = fill(0x5A), fill(0x5B)
			}
			got := make([]byte, blockdev.BlockSize)
			for h, w := range want {
				if err := dev.ReadBlock(h, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, w) {
					t.Fatalf("block %d byte0 = %#x after Recover, want %#x", h, got[0], w[0])
				}
			}
		})
	}
}

// TestTxnWriteTakesOwnership: a staged image is the caller's slice, not a
// copy, and a rewrite of the block in the same transaction swaps in the
// new slice without writing into the old one.
func TestTxnWriteTakesOwnership(t *testing.T) {
	_, l := newLog(t, 16, 0, 8)
	tx := l.Begin()
	a, b := fill(1), fill(2)
	if err := tx.Write(13, a); err != nil {
		t.Fatal(err)
	}
	if &tx.data[0][0] != &a[0] {
		t.Fatal("Write copied the image")
	}
	if err := tx.Write(13, b); err != nil {
		t.Fatal(err)
	}
	if &tx.data[0][0] != &b[0] || !bytes.Equal(a, fill(1)) {
		t.Fatal("rewrite did not swap in the new slice")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
