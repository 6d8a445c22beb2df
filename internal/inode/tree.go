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
// tree mutations are journaled and must never be torn. A tree is decoded
// once, when its resident index is built, so the decode counts entries first
// (one exact allocation, no growslice) and carves all names out of a single
// string conversion of the payload.
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

// direntSize is the encoded size of an entry named name.
func direntSize(name string) uint64 { return uint64(2 + len(name) + 8) }

// treeIndex is the resident decoded form of one tree inode's payload: its
// entries in on-disk order and a name→child map over them, kept in
// fs.trees so that Lookup is a map probe and a link step encodes only the
// entries it changed. Biscuit's idaemon keeps per-inode state resident in
// the same way (idaemon_ensure).
//
// Rules: an index is built from disk on the first use of its tree and only
// ever read or built by a request running on the tree's actor. A scope
// stages its edits beside the index (see opInode) and the enqueue critical
// section applies them under metaMu, together with the tree's table slot,
// so a reader sees exactly what the journal overlay would show it. Freeing
// the tree drops its index; a Mount starts with none. FS.Check, on an idle
// filesystem, reads every index under metaMu and compares it with the
// payload it decodes from disk.
type treeIndex struct {
	ents []Dirent
	inos map[string]Ino
}

func newTreeIndex(ents []Dirent) *treeIndex {
	idx := &treeIndex{ents: ents, inos: make(map[string]Ino, len(ents))}
	for _, e := range ents {
		idx.inos[e.Name] = e.Ino
	}
	return idx
}

// consistent reports the first way the name map disagrees with the
// entries.
func (idx *treeIndex) consistent() error {
	for _, e := range idx.ents {
		if ino, ok := idx.inos[e.Name]; !ok || ino != e.Ino {
			return fmt.Errorf("entry %q -> %d is mapped to %d", e.Name, e.Ino, ino)
		}
	}
	if len(idx.inos) != len(idx.ents) {
		return fmt.Errorf("%d names mapped for %d entries", len(idx.inos), len(idx.ents))
	}
	return nil
}

// loadIndex returns tree t's resident index, decoding its payload from disk
// on first use. The caller owns t's actor.
func (fs *FS) loadIndex(t Ino) (*treeIndex, error) {
	fs.metaMu.Lock()
	d, idx := fs.itab[t], fs.trees[t]
	fs.metaMu.Unlock()
	if d.Mode == ModeFree {
		return nil, fmt.Errorf("%w: %d is free", ErrBadInode, t)
	}
	if idx != nil {
		return idx, nil
	}
	ents, err := fs.loadTree(&d, t)
	if err != nil {
		return nil, err
	}
	idx = newTreeIndex(ents)
	fs.metaMu.Lock()
	fs.trees[t] = idx
	fs.metaMu.Unlock()
	return idx, nil
}

// loadTree reads and decodes the on-disk entries of tree t, whose inode is
// d. Only index builds and Check read tree payloads.
func (fs *FS) loadTree(d *dinode, t Ino) ([]Dirent, error) {
	if d.Mode != ModeTree {
		return nil, fmt.Errorf("%w: inode %d is %v", ErrNotTree, t, d.Mode)
	}
	buf := make([]byte, d.Size)
	blk := make([]byte, blockdev.BlockSize)
	for read := 0; read < len(buf); {
		bo := uint64(read) % blockdev.BlockSize
		n := min(int(blockdev.BlockSize-bo), len(buf)-read)
		phys, err := fs.bmap(nil, d, uint64(read)/blockdev.BlockSize, false)
		if err != nil {
			return nil, err
		}
		if phys != 0 {
			if err := fs.readBlock(nil, phys, blk); err != nil {
				return nil, err
			}
			copy(buf[read:read+n], blk[bo:])
		} else {
			clear(buf[read : read+n])
		}
		read += n
	}
	return decodeDirents(buf)
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

// Lookup resolves the named child of parent: a probe of the parent's
// resident index, with no block read once the index is built.
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
		idx, err := fs.loadIndex(parent)
		if err != nil {
			opErr = err
			return
		}
		child, found = idx.inos[name]
	})
	if opErr != nil {
		return 0, opErr
	}
	if !found {
		return 0, fmt.Errorf("%w: %q under inode %d", ErrChildNotFound, name, parent)
	}
	return child, nil
}

// Children lists the links of a tree inode in insertion order. The slice
// is the caller's copy.
func (fs *FS) Children(parent Ino) ([]Dirent, error) {
	if err := fs.rangeCheck(parent); err != nil {
		return nil, err
	}
	var (
		ents  []Dirent
		opErr error
	)
	fs.exec(parent, func() {
		idx, err := fs.loadIndex(parent)
		if err != nil {
			opErr = err
			return
		}
		ents = append([]Dirent(nil), idx.ents...)
	})
	return ents, opErr
}
