package inode

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/blockdev"
)

// This file implements named tree links between inodes. The paper's DBFS is
// organized as "two major inode trees" (§3): tree inodes here hold a packed
// list of (name, child-ino) entries in their data bytes, exactly like a
// minimal directory format. plainfs reuses the same links as directories.
//
// Link and unlink touch both the parent tree and the child's link count;
// they are the Op.Link / Op.Unlink steps of an operation scope, which holds
// both actors in ascending order. RemoveChild only learns the child inode
// from the parent's entry list, so it peeks under the parent alone, then
// opens a scope over both and revalidates (Biscuit's lock-in-order +
// recheck pattern), retrying if a concurrent mutation moved the name.

// Dirent is one (name, ino) link inside a tree inode.
type Dirent struct {
	Name string
	Ino  Ino
}

// maxNameLen bounds link names; DBFS uses names like record ids and field
// names, plainfs uses path components.
const maxNameLen = 255

// encodeDirents packs entries into the on-disk format:
// repeated [u16 len][name bytes][u64 ino].
func encodeDirents(ents []Dirent) []byte {
	size := 0
	for _, e := range ents {
		size += 2 + len(e.Name) + 8
	}
	out := make([]byte, size)
	off := 0
	for _, e := range ents {
		binary.LittleEndian.PutUint16(out[off:], uint16(len(e.Name)))
		off += 2
		copy(out[off:], e.Name)
		off += len(e.Name)
		binary.LittleEndian.PutUint64(out[off:], uint64(e.Ino))
		off += 8
	}
	return out
}

// decodeDirents unpacks tree content; a truncated tail is an error because
// tree mutations are journaled and must never be torn. Hot DBFS subject
// trees hold hundreds of entries and are re-decoded on every lookup, so the
// decode counts entries first (one exact allocation, no growslice) and
// carves all names out of a single string conversion of the payload.
func decodeDirents(b []byte) ([]Dirent, error) {
	count := 0
	for off := 0; off < len(b); count++ {
		if off+2 > len(b) {
			return nil, fmt.Errorf("inode: corrupt tree entry header at %d", off)
		}
		n := int(binary.LittleEndian.Uint16(b[off:]))
		if off+2+n+8 > len(b) {
			return nil, fmt.Errorf("inode: corrupt tree entry body at %d", off+2)
		}
		off += 2 + n + 8
	}
	s := string(b)
	ents := make([]Dirent, 0, count)
	off := 0
	for off < len(b) {
		n := int(binary.LittleEndian.Uint16(b[off:]))
		off += 2
		name := s[off : off+n]
		off += n
		ino := Ino(binary.LittleEndian.Uint64(b[off:]))
		off += 8
		ents = append(ents, Dirent{Name: name, Ino: ino})
	}
	return ents, nil
}

// findDirent scans packed tree content for one name without materializing
// the entry list — the Lookup fast path allocates nothing beyond the
// payload read itself.
func findDirent(b []byte, name string) (Ino, bool, error) {
	off := 0
	for off < len(b) {
		if off+2 > len(b) {
			return 0, false, fmt.Errorf("inode: corrupt tree entry header at %d", off)
		}
		n := int(binary.LittleEndian.Uint16(b[off:]))
		off += 2
		if off+n+8 > len(b) {
			return 0, false, fmt.Errorf("inode: corrupt tree entry body at %d", off)
		}
		if n == len(name) && string(b[off:off+n]) == name {
			return Ino(binary.LittleEndian.Uint64(b[off+n:])), true, nil
		}
		off += n + 8
	}
	return 0, false, nil
}

// loadTree reads and decodes the entries of the working tree copy d. The
// caller owns d's inode actor.
func (fs *FS) loadTree(d *dinode, t Ino) ([]Dirent, error) {
	buf, err := fs.loadTreeBytes(d, t)
	if err != nil {
		return nil, err
	}
	return decodeDirents(buf)
}

// loadTreeBytes reads the packed entry payload of the working tree copy d
// without decoding it. The caller owns d's inode.
func (fs *FS) loadTreeBytes(d *dinode, t Ino) ([]byte, error) {
	if d.Mode != ModeTree {
		return nil, fmt.Errorf("%w: inode %d is %v", ErrNotTree, t, d.Mode)
	}
	buf := make([]byte, d.Size)
	read := 0
	blk := make([]byte, blockdev.BlockSize)
	for read < len(buf) {
		cur := uint64(read)
		bi := cur / blockdev.BlockSize
		bo := cur % blockdev.BlockSize
		n := blockdev.BlockSize - bo
		if int(n) > len(buf)-read {
			n = uint64(len(buf) - read)
		}
		phys, err := fs.bmap(nil, d, bi, false)
		if err != nil {
			return nil, err
		}
		if phys == 0 {
			for i := uint64(0); i < n; i++ {
				buf[read+int(i)] = 0
			}
		} else {
			if err := fs.readBlock(nil, phys, blk); err != nil {
				return nil, err
			}
			copy(buf[read:read+int(n)], blk[bo:bo+n])
		}
		read += int(n)
	}
	return buf, nil
}

// AddChild links child under parent with the given name, as one
// transaction: the parent's entry rewrite and the child's link-count bump
// commit together. The name must be unique within parent.
func (fs *FS) AddChild(parent Ino, name string, child Ino) error {
	return fs.Do([]Ino{parent, child}, func(op *Op) error { return op.Link(parent, name, child) })
}

// RemoveChild unlinks the named child from parent, as one transaction. The
// child inode itself is not freed; callers decide (FreeInode) once Links
// drops to zero.
//
// The child inode is only discoverable from the parent's entries, so the
// operation peeks under the parent's actor alone, then opens a scope over
// parent AND child and revalidates that the name still maps to the same
// child — retrying if a concurrent mutation won the race.
func (fs *FS) RemoveChild(parent Ino, name string) error {
	for {
		child, err := fs.Lookup(parent, name)
		if err != nil {
			return err
		}
		// A corrupt entry can name an out-of-range child; the scope then
		// owns the parent alone and Unlink skips the link-count update.
		declared := []Ino{parent, child}
		if fs.rangeCheck(child) != nil {
			declared = declared[:1]
		}
		err = fs.Do(declared, func(op *Op) error { return op.Unlink(parent, name, child) })
		if !errors.Is(err, errLinkMoved) {
			return err
		}
		// Lost the race between peek and scope; retry.
	}
}

// Lookup resolves the named child of parent.
func (fs *FS) Lookup(parent Ino, name string) (Ino, error) {
	if err := fs.rangeCheck(parent); err != nil {
		return 0, err
	}
	var (
		child Ino
		found bool
		opErr error
	)
	fs.exec(parent, func() {
		pd, err := fs.loadAlive(parent)
		if err != nil {
			opErr = err
			return
		}
		buf, err := fs.loadTreeBytes(&pd, parent)
		if err != nil {
			opErr = err
			return
		}
		child, found, opErr = findDirent(buf, name)
	})
	if opErr != nil {
		return 0, opErr
	}
	if !found {
		return 0, fmt.Errorf("%w: %q under inode %d", ErrChildNotFound, name, parent)
	}
	return child, nil
}

// Children lists the links of a tree inode in insertion order.
func (fs *FS) Children(parent Ino) ([]Dirent, error) {
	if err := fs.rangeCheck(parent); err != nil {
		return nil, err
	}
	var (
		ents  []Dirent
		opErr error
	)
	fs.exec(parent, func() {
		pd, err := fs.loadAlive(parent)
		if err != nil {
			opErr = err
			return
		}
		ents, opErr = fs.loadTree(&pd, parent)
	})
	return ents, opErr
}
