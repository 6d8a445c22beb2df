package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/dbfs"
	"repro/internal/inode"
)

// subjectOnPartition returns a subject ID whose shard routes to PD
// partition p (the contiguous shard range dbfs routes there).
func subjectOnPartition(t *testing.T, p int) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		s := fmt.Sprintf("part%d-subject%d", p, i)
		if int(dbfs.ShardOf(s))*pdPartitions/dbfs.DefaultShards == p {
			return s
		}
	}
	t.Fatalf("no subject routes to partition %d", p)
	return ""
}

// TestBootPartitionsPD: a default Boot formats pdPartitions PD filesystems,
// a subject's insert commits on its own partition's journal and no other,
// and every partition passes fsck afterwards.
func TestBootPartitionsPD(t *testing.T) {
	s := bootTest(t)
	setupUserType(t, s)
	if len(s.pdFSs) != pdPartitions {
		t.Fatalf("%d PD filesystems, want %d", len(s.pdFSs), pdPartitions)
	}
	tok := s.DEDToken()
	insert := func(subject string) {
		t.Helper()
		if _, err := s.DBFS().Insert(tok, "user", subject, dbfs.Record{
			"name": dbfs.S(subject), "pwd": dbfs.S("pw-" + subject), "year_of_birthdate": dbfs.I(1990),
		}, nil); err != nil {
			t.Fatalf("Insert %s: %v", subject, err)
		}
	}
	// The first insert of a type leases its id range on partition 0; take
	// it before counting.
	insert(subjectOnPartition(t, 0))
	for p := 0; p < pdPartitions; p++ {
		before := make([]uint64, pdPartitions)
		for i, fs := range s.pdFSs {
			before[i] = fs.JournalStats().TxnsCommitted
		}
		insert(subjectOnPartition(t, p))
		for i, fs := range s.pdFSs {
			moved := fs.JournalStats().TxnsCommitted != before[i]
			if moved != (i == p) {
				t.Errorf("insert routed to partition %d: partition %d journal moved = %v", p, i, moved)
			}
		}
	}
	for i, fs := range s.pdFSs {
		rep, err := fs.Check()
		if err != nil || rep.LeakedBlocks != 0 {
			t.Errorf("partition %d fsck: %+v, %v", i, rep, err)
		}
	}
}

// TestBootPDDiskTooSmall: a PD disk whose partitions cannot hold their
// superblock, bitmap, inode table and journal fails Boot with a typed
// error, never a panic.
func TestBootPDDiskTooSmall(t *testing.T) {
	for _, blocks := range []uint64{1, pdPartitions, 64, 1024} {
		s, err := Boot(Options{AuthorityBits: 1024, PDDiskBlocks: blocks})
		if s != nil || !(errors.Is(err, inode.ErrNoSpace) || errors.Is(err, blockdev.ErrOutOfRange)) {
			t.Errorf("PDDiskBlocks %d: Boot = %v, %v; want nil, ErrNoSpace or ErrOutOfRange", blocks, s, err)
		}
	}
}
