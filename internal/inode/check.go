package inode

import (
	"encoding/binary"
	"fmt"

	"repro/internal/blockdev"
)

// CheckReport summarizes a structurally sound filesystem.
type CheckReport struct {
	// Inodes is the number of live inodes (the root included).
	Inodes int
	// Blocks is the number of data blocks owned by live inodes.
	Blocks int
	// LeakedBlocks counts data blocks whose bitmap bit is set but that no
	// inode owns — the documented leak a crash between a block claim and
	// its transaction's commit can leave; never corruption.
	LeakedBlocks int
}

// Check is a small fsck over the mounted metadata: it walks every live
// inode's block pointers and every tree reachable from the root and reports
// the first structural violation — a live inode unreachable from the root,
// a link count that differs from the number of entries naming the inode, an
// entry naming a free or out-of-range inode, a block owned twice, or an
// owned block whose bitmap bit is clear. It also compares every resident
// tree index with the payload it decodes from disk (Check always reads the
// disk), so a stale index is a violation too. Run it on an idle filesystem
// (crash tests call it right after Mount).
func (fs *FS) Check() (CheckReport, error) {
	var rep CheckReport
	fs.metaMu.Lock()
	itab := append([]dinode(nil), fs.itab...)
	bitmap := append([]byte(nil), fs.bitmap...)
	resident := make(map[Ino][]Dirent, len(fs.trees))
	var idxErr error
	for t, idx := range fs.trees {
		resident[t] = append([]Dirent(nil), idx.ents...)
		if err := idx.consistent(); err != nil && idxErr == nil {
			idxErr = fmt.Errorf("inode: check: index of tree %d: %w", t, err)
		}
	}
	fs.metaMu.Unlock()
	if idxErr != nil {
		return rep, idxErr
	}

	owner := make(map[uint64]Ino)
	own := func(ino Ino, b uint64) error {
		if b < fs.sb.DataStart || b >= fs.sb.NBlocks {
			return fmt.Errorf("inode: check: inode %d maps block %d outside the data region", ino, b)
		}
		if prev, dup := owner[b]; dup {
			return fmt.Errorf("inode: check: block %d owned by inodes %d and %d", b, prev, ino)
		}
		if bitmap[b/8]&(1<<(b%8)) == 0 {
			return fmt.Errorf("inode: check: block %d of inode %d is free in the bitmap", b, ino)
		}
		owner[b] = ino
		return nil
	}
	// ownPtrs claims pointer block b and, depth levels below it, the blocks
	// it names.
	var ownPtrs func(ino Ino, b uint64, depth int) error
	ownPtrs = func(ino Ino, b uint64, depth int) error {
		if err := own(ino, b); err != nil {
			return err
		}
		buf := make([]byte, blockdev.BlockSize)
		if err := fs.readBlock(nil, b, buf); err != nil {
			return err
		}
		for j := 0; j < PtrsPerBlock; j++ {
			p := binary.LittleEndian.Uint64(buf[8*j:])
			if p == 0 {
				continue
			}
			var err error
			if depth > 1 {
				err = ownPtrs(ino, p, depth-1)
			} else {
				err = own(ino, p)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	for i := 1; i < len(itab); i++ {
		d := &itab[i]
		if d.Mode == ModeFree {
			continue
		}
		rep.Inodes++
		for _, b := range d.Direct {
			if b != 0 {
				if err := own(Ino(i), b); err != nil {
					return rep, err
				}
			}
		}
		if d.Indirect != 0 {
			if err := ownPtrs(Ino(i), d.Indirect, 1); err != nil {
				return rep, err
			}
		}
		if d.DblInd != 0 {
			if err := ownPtrs(Ino(i), d.DblInd, 2); err != nil {
				return rep, err
			}
		}
	}
	rep.Blocks = len(owner)
	for b := fs.sb.DataStart; b < fs.sb.NBlocks; b++ {
		if _, owned := owner[b]; !owned && bitmap[b/8]&(1<<(b%8)) != 0 {
			rep.LeakedBlocks++
		}
	}

	// Reachability and link counts: walk the trees from the root.
	refs := make(map[Ino]uint32)
	seen := map[Ino]bool{RootIno: true}
	for queue := []Ino{RootIno}; len(queue) > 0; queue = queue[1:] {
		t := queue[0]
		if itab[t].Mode != ModeTree {
			continue
		}
		ents, err := fs.loadTree(&itab[t], t)
		if err != nil {
			return rep, fmt.Errorf("inode: check: tree %d: %w", t, err)
		}
		if idx, ok := resident[t]; ok {
			if err := sameEntries(idx, ents); err != nil {
				return rep, fmt.Errorf("inode: check: index of tree %d: %w", t, err)
			}
			delete(resident, t)
		}
		for _, e := range ents {
			if fs.rangeCheck(e.Ino) != nil || itab[e.Ino].Mode == ModeFree {
				return rep, fmt.Errorf("inode: check: entry %q of tree %d names dead inode %d", e.Name, t, e.Ino)
			}
			refs[e.Ino]++
			if !seen[e.Ino] {
				seen[e.Ino] = true
				queue = append(queue, e.Ino)
			}
		}
	}
	for t := range resident {
		if itab[t].Mode != ModeTree {
			return rep, fmt.Errorf("inode: check: index kept for inode %d, which is %v", t, itab[t].Mode)
		}
	}
	for i := 1; i < len(itab); i++ {
		if itab[i].Mode == ModeFree {
			continue
		}
		if !seen[Ino(i)] {
			return rep, fmt.Errorf("inode: check: live inode %d (%q) is unreachable from the root", i, itab[i].Tag)
		}
		if itab[i].Links != refs[Ino(i)] {
			return rep, fmt.Errorf("inode: check: inode %d has Links=%d but %d entries name it", i, itab[i].Links, refs[Ino(i)])
		}
	}
	return rep, nil
}

// sameEntries reports the first difference between a resident index's
// entries and the entries decoded from disk.
func sameEntries(idx, disk []Dirent) error {
	for i := 0; i < len(idx) && i < len(disk); i++ {
		if idx[i] != disk[i] {
			return fmt.Errorf("entry %d is %q -> %d, disk has %q -> %d", i, idx[i].Name, idx[i].Ino, disk[i].Name, disk[i].Ino)
		}
	}
	if len(idx) != len(disk) {
		return fmt.Errorf("%d entries, disk has %d", len(idx), len(disk))
	}
	return nil
}
