package inode

import (
	"errors"
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/wal"
)

// This file implements the operation scope — Biscuit's op_begin()/op_end()
// bracket: one filesystem operation of any number of steps is one journal
// transaction with one commit point.
//
// Contract:
//
//   - Declared set. The caller names every EXISTING inode the operation
//     will mutate. Inodes allocated inside the scope need no declaration:
//     nothing else can know their number before the scope commits. A step
//     on an inode that is neither declared nor allocated by the scope fails
//     with ErrNotDeclared.
//   - Ascending acquisition. The declared actors are taken in ascending
//     inode order whatever the argument order (each actor's request forwards
//     into the next higher one), so a daemon only ever waits on a strictly
//     higher inode and ownership cycles cannot form.
//   - Private claims. An inode allocated by the scope reserves its table
//     slot in memory only (fs.claimed); the slot stays ModeFree in the table
//     mirror, so no other transaction's image of the shared table block can
//     make it durable before this scope commits. The slot is published at
//     enqueue and released on abort — a crash never leaves an allocated
//     inode that nothing links.
//   - Single enqueue. Every step stages into one mtx against working inode
//     copies that later steps see. Link steps edit a view of the tree's
//     resident index without copying it, and commit writes each edited
//     tree's changed tail once. One metaMu critical section stages the
//     metadata, publishes every touched inode and its index edit, and
//     enqueues; the actors are released and the caller waits on one
//     ticket. Readers and a crash see all of the operation or none of it;
//     abort is the only cleanup.
//   - Spill rule. An operation that stages fs.maxChunk blocks enqueues what
//     it has (publishing the working copies as they stand) and continues in
//     a fresh transaction — the chunking large writes always had, and the
//     one case that is not atomic. Tree links are flushed with the final
//     transaction, so a spilled operation can leave allocated-but-unlinked
//     inodes after a crash, never a link to missing contents. A spill
//     publishes the index edit of a tree only once its tail is written.
//
// Lock order: (caller's locks) → actors, ascending → metaMu → wal.mu.

// ErrNotDeclared reports a scope step on an inode the scope neither
// declared nor allocated.
var ErrNotDeclared = errors.New("inode: inode not declared by the operation scope")

// errLinkMoved reports an Unlink whose name no longer maps to the expected
// child; RemoveChild retries on it, other callers see ErrChildNotFound.
var errLinkMoved = fmt.Errorf("%w: link moved", ErrChildNotFound)

// opInode is a scope's working copy of one inode. Steps mutate d (and, for
// trees, the edit view) in place; enqueue publishes dirty copies into the
// table.
type opInode struct {
	ino Ino
	d   dinode
	// fresh marks an inode allocated by this scope whose slot is still only
	// reserved in fs.claimed.
	fresh bool
	dirty bool
	// Tree edit, staged against the resident index idx without copying it:
	// the scope's view of the tree is idx.ents[:keep] followed by tail, and
	// keepOff is the payload offset where tail starts. edited marks a view
	// whose tail is not written yet, staged one whose tail is in the
	// current transaction and that enqueue applies to idx.
	idx     *treeIndex
	keep    int
	keepOff uint64
	tail    []Dirent
	edited  bool
	staged  bool
}

// Op is an open operation scope; see Do. Its methods are the step bodies
// every mutation of the filesystem goes through — the single-call FS
// methods are one-step scopes over them. An Op is only valid inside the
// function Do runs.
type Op struct {
	fs       *FS
	m        *mtx
	declared []Ino // ascending, distinct
	inodes   []*opInode
	tickets  []*wal.Ticket
	blk      []byte // scratch block image, reused by every staged block
}

// Do runs fn as one operation scope over the declared inodes and returns
// once the operation is durable (or has failed and been rolled back). A
// non-nil error from fn aborts the scope: nothing it staged is published.
func (fs *FS) Do(declared []Ino, fn func(*Op) error) error {
	op := &Op{fs: fs, declared: make([]Ino, 0, len(declared))}
	for _, ino := range declared {
		if err := fs.rangeCheck(ino); err != nil {
			return err
		}
		op.declare(ino)
	}
	var err error
	fs.execAll(op.declared, func() {
		op.m = fs.begin()
		if err = fn(op); err == nil {
			err = op.commit()
		}
		if err != nil {
			op.abort()
		}
	})
	// A durability failure supersedes a staging error.
	if werr := waitTickets(op.tickets); werr != nil {
		return werr
	}
	return err
}

// declare inserts ino into the ascending declared list, ignoring repeats.
func (op *Op) declare(ino Ino) {
	i := len(op.declared)
	for i > 0 && op.declared[i-1] >= ino {
		i--
	}
	if i < len(op.declared) && op.declared[i] == ino {
		return
	}
	op.declared = append(op.declared, 0)
	copy(op.declared[i+1:], op.declared[i:])
	op.declared[i] = ino
}

// inode returns the scope's working copy of ino, snapshotting the table
// slot on first use. The slot may be free; steps that need a live inode go
// through alive.
func (op *Op) inode(ino Ino) (*opInode, error) {
	for _, w := range op.inodes {
		if w.ino == ino {
			return w, nil
		}
	}
	for _, d := range op.declared {
		if d == ino {
			w := &opInode{ino: ino, d: op.fs.loadInode(ino)}
			op.inodes = append(op.inodes, w)
			return w, nil
		}
	}
	return nil, fmt.Errorf("%w: %d", ErrNotDeclared, ino)
}

// alive is inode plus the liveness check.
func (op *Op) alive(ino Ino) (*opInode, error) {
	w, err := op.inode(ino)
	if err != nil {
		return nil, err
	}
	if w.d.Mode == ModeFree {
		return nil, fmt.Errorf("%w: %d is free", ErrBadInode, ino)
	}
	return w, nil
}

// commit writes the changed tail of every edited tree and enqueues the
// scope's transaction.
func (op *Op) commit() error {
	for _, w := range op.inodes {
		if w.edited {
			if err := op.storeTree(w); err != nil {
				return err
			}
		}
	}
	return op.enqueue()
}

// enqueue publishes the working copies and hands the current transaction
// to the journal, keeping its ticket for Do to wait on.
func (op *Op) enqueue() error {
	tk, err := op.m.enqueue(op.inodes)
	if err != nil {
		return err
	}
	if tk != nil {
		op.tickets = append(op.tickets, tk)
	}
	return nil
}

// abort drops the current transaction, the blocks it allocated and every
// inode slot the scope still holds privately. Index edits are never applied
// before enqueue, so there is nothing to undo — except after a spill, when
// the journal may already hold part of a tree's unpublished tail: that
// tree's index is dropped and the next use re-reads what the disk has.
func (op *Op) abort() {
	op.m.abort()
	op.fs.metaMu.Lock()
	for _, w := range op.inodes {
		if w.fresh {
			op.fs.releaseSlotLocked(w.ino)
		}
		if len(op.tickets) > 0 && (w.edited || w.staged) {
			delete(op.fs.trees, w.ino)
		}
	}
	op.fs.metaMu.Unlock()
	op.inodes = nil
}

// writeRange stages p at byte offset off of w, allocating blocks as
// needed and growing Size, and spilling whenever the transaction reaches
// the chunk limit. A block p covers only partly keeps its other bytes —
// unless pad is set, which zero-fills the tail of the last block instead
// of reading it (contents replacement: nothing past the new end is live).
func (op *Op) writeRange(w *opInode, off uint64, p []byte, pad bool) error {
	if op.blk == nil {
		op.blk = make([]byte, blockdev.BlockSize)
	}
	buf := op.blk
	for written := 0; written < len(p); {
		if op.m.tx.Len() >= op.fs.maxChunk {
			if err := op.enqueue(); err != nil {
				return err
			}
			op.m = op.fs.begin()
		}
		cur := off + uint64(written)
		bi := cur / blockdev.BlockSize
		bo := cur % blockdev.BlockSize
		n := int(blockdev.BlockSize - bo)
		if n > len(p)-written {
			n = len(p) - written
		}
		phys, err := op.fs.bmap(op.m, &w.d, bi, true)
		if err != nil {
			return err
		}
		if bo != 0 || (n != blockdev.BlockSize && !pad) {
			if err := op.m.readBlock(phys, buf); err != nil {
				return err
			}
		}
		copy(buf[bo:], p[written:written+n])
		if pad {
			for i := int(bo) + n; i < len(buf); i++ {
				buf[i] = 0
			}
		}
		if err := op.m.tx.Write(phys, buf); err != nil {
			return err
		}
		written += n
		if end := off + uint64(written); end > w.d.Size {
			w.d.Size = end
		}
		w.dirty = true
	}
	return nil
}

// shrink frees the whole blocks of w past size and sets Size; the partial
// tail block is not scrubbed.
func (op *Op) shrink(w *opInode, size uint64) error {
	keep := (size + blockdev.BlockSize - 1) / blockdev.BlockSize
	total := (w.d.Size + blockdev.BlockSize - 1) / blockdev.BlockSize
	for bi := keep; bi < total; bi++ {
		phys, err := op.fs.bmap(op.m, &w.d, bi, false)
		if err != nil {
			return err
		}
		if phys == 0 {
			continue
		}
		if err := op.m.free(phys); err != nil {
			return err
		}
		if err := op.fs.clearMapping(op.m, &w.d, bi); err != nil {
			return err
		}
	}
	w.d.Size = size
	w.dirty = true
	return nil
}

// replace makes p the whole contents of w in place: mapped blocks are
// overwritten, missing ones allocated, and only a surplus tail is freed —
// a same-size rewrite touches no bitmap block.
func (op *Op) replace(w *opInode, p []byte) error {
	if err := op.writeRange(w, 0, p, true); err != nil {
		return err
	}
	if uint64(len(p)) < w.d.Size {
		if err := op.shrink(w, uint64(len(p))); err != nil {
			return err
		}
	}
	w.d.MTimeNano = op.fs.clock.Now().UnixNano()
	w.dirty = true
	return nil
}

// view starts tree w's edit on its resident index, loading the index on
// first use; a tree this scope allocated starts empty.
func (op *Op) view(w *opInode) error {
	if w.idx != nil {
		return nil
	}
	if w.d.Mode != ModeTree {
		return fmt.Errorf("%w: inode %d is %v", ErrNotTree, w.ino, w.d.Mode)
	}
	if w.fresh {
		w.idx = newTreeIndex(nil)
	} else {
		idx, err := op.fs.loadIndex(w.ino)
		if err != nil {
			return err
		}
		w.idx = idx
	}
	w.resetView()
	return nil
}

// resetView makes w's view the index as it stands, with nothing staged.
func (w *opInode) resetView() {
	w.keep, w.keepOff, w.tail = len(w.idx.ents), w.d.Size, nil
	w.edited, w.staged = false, false
}

// find locates name in w's view: a position below w.keep is an index
// entry, one at or above it is w.tail[pos-w.keep]. The index is scanned
// only for a name its map holds.
func (w *opInode) find(name string) (pos int, ino Ino, ok bool) {
	for j, e := range w.tail {
		if e.Name == name {
			return w.keep + j, e.Ino, true
		}
	}
	if _, ok := w.idx.inos[name]; !ok {
		return 0, 0, false
	}
	for i, e := range w.idx.ents[:w.keep] {
		if e.Name == name {
			return i, e.Ino, true
		}
	}
	return 0, 0, false
}

// storeTree stages tree w's changed tail: the view's entries from keep
// onward, encoded at keepOff with the rest of their last block zeroed, and
// frees whole blocks past the new end. Each block it stages holds exactly
// the bytes a rewrite of the whole payload would put there; no block that
// ends before keepOff is read or staged.
func (op *Op) storeTree(w *opInode) error {
	from, p := w.keepOff, encodeDirents(w.tail)
	if bo := from % blockdev.BlockSize; len(p) == 0 && bo != 0 && from < w.d.Size {
		// Only trailing entries went: rewrite the live prefix of the block
		// they leave partly used, so their bytes are zeroed.
		phys, err := op.fs.bmap(op.m, &w.d, from/blockdev.BlockSize, false)
		if err != nil {
			return err
		}
		blk := make([]byte, blockdev.BlockSize)
		if err := op.m.readBlock(phys, blk); err != nil {
			return err
		}
		from, p = from-bo, blk[:bo]
	}
	if err := op.writeRange(w, from, p, true); err != nil {
		return err
	}
	if end := from + uint64(len(p)); end < w.d.Size {
		if err := op.shrink(w, end); err != nil {
			return err
		}
	}
	w.d.MTimeNano = op.fs.clock.Now().UnixNano()
	w.dirty = true
	w.edited, w.staged = false, true
	return nil
}

// publishTreeLocked applies the staged edit of w to its resident index, or
// drops the index of a freed inode. enqueue calls it with metaMu held, in
// the critical section that publishes w's table slot.
func (fs *FS) publishTreeLocked(w *opInode) {
	if w.d.Mode == ModeFree {
		delete(fs.trees, w.ino)
		return
	}
	if !w.staged {
		return
	}
	idx := w.idx
	for _, e := range idx.ents[w.keep:] {
		delete(idx.inos, e.Name)
	}
	idx.ents = append(idx.ents[:w.keep], w.tail...)
	for _, e := range w.tail {
		idx.inos[e.Name] = e.Ino
	}
	fs.trees[w.ino] = idx
	w.resetView()
}

// --- steps ---

// Alloc claims a fresh inode of the given mode. The inode is private to
// the scope until it commits.
func (op *Op) Alloc(mode Mode, tag string) (Ino, error) {
	if mode == ModeFree {
		return 0, fmt.Errorf("%w: cannot allocate ModeFree", ErrBadInode)
	}
	if len(tag) > MaxTagLen {
		return 0, fmt.Errorf("%w: %d bytes", ErrTagTooLong, len(tag))
	}
	ino, err := op.fs.claimSlot()
	if err != nil {
		return 0, err
	}
	op.inodes = append(op.inodes, &opInode{
		ino:   ino,
		d:     dinode{Mode: mode, MTimeNano: op.fs.clock.Now().UnixNano(), Tag: tag},
		fresh: true,
		dirty: true,
	})
	return ino, nil
}

// file is alive for the steps that change raw contents. A tree's payload
// changes only through Link and Unlink, which keep its index in step.
func (op *Op) file(ino Ino) (*opInode, error) {
	w, err := op.alive(ino)
	if err == nil && w.d.Mode == ModeTree {
		err = fmt.Errorf("inode: raw contents change to tree inode %d", ino)
	}
	return w, err
}

// Write stages p at byte offset off of file inode ino, extending it as
// needed.
func (op *Op) Write(ino Ino, off uint64, p []byte) error {
	if (off+uint64(len(p))+blockdev.BlockSize-1)/blockdev.BlockSize > MaxFileBlocks {
		return ErrFileTooBig
	}
	w, err := op.file(ino)
	if err != nil {
		return err
	}
	if len(p) == 0 {
		return nil
	}
	if err := op.writeRange(w, off, p, false); err != nil {
		return err
	}
	w.d.MTimeNano = op.fs.clock.Now().UnixNano()
	return nil
}

// Replace makes p the whole contents of file inode ino, in place.
func (op *Op) Replace(ino Ino, p []byte) error {
	if (uint64(len(p))+blockdev.BlockSize-1)/blockdev.BlockSize > MaxFileBlocks {
		return ErrFileTooBig
	}
	w, err := op.file(ino)
	if err != nil {
		return err
	}
	return op.replace(w, p)
}

// Truncate shrinks file inode ino to size (growing is done by Write).
func (op *Op) Truncate(ino Ino, size uint64) error {
	w, err := op.file(ino)
	if err != nil {
		return err
	}
	if size >= w.d.Size {
		return nil
	}
	if err := op.shrink(w, size); err != nil {
		return err
	}
	w.d.MTimeNano = op.fs.clock.Now().UnixNano()
	return nil
}

// Link adds the entry name → child to tree parent and bumps the child's
// link count.
func (op *Op) Link(parent Ino, name string, child Ino) error {
	if name == "" || len(name) > maxNameLen {
		return fmt.Errorf("inode: invalid child name %q", name)
	}
	pw, err := op.alive(parent)
	if err != nil {
		return err
	}
	cw, err := op.alive(child)
	if err != nil {
		return err
	}
	if err := op.view(pw); err != nil {
		return err
	}
	if _, _, ok := pw.find(name); ok {
		return fmt.Errorf("%w: %q under inode %d", ErrChildExists, name, parent)
	}
	pw.tail = append(pw.tail, Dirent{Name: name, Ino: child})
	pw.edited = true
	cw.d.Links++
	cw.dirty = true
	return nil
}

// Unlink removes the entry name → child from tree parent and drops the
// child's link count; the child itself is not freed. It fails with an
// ErrChildNotFound-wrapped error when the name is absent or maps to a
// different inode. An entry naming an out-of-range inode (corruption) is
// removed without a link-count update. Every entry after the removed one
// moves down, so it joins the tail that commit re-encodes.
func (op *Op) Unlink(parent Ino, name string, child Ino) error {
	pw, err := op.alive(parent)
	if err != nil {
		return err
	}
	if err := op.view(pw); err != nil {
		return err
	}
	pos, ino, ok := pw.find(name)
	if !ok || ino != child {
		return fmt.Errorf("%w: %q under inode %d", errLinkMoved, name, parent)
	}
	if j := pos - pw.keep; j >= 0 {
		pw.tail = append(pw.tail[:j], pw.tail[j+1:]...)
	} else {
		shifted := pw.idx.ents[pos+1 : pw.keep]
		for _, e := range pw.idx.ents[pos:pw.keep] {
			pw.keepOff -= direntSize(e.Name)
		}
		pw.tail = append(append(make([]Dirent, 0, len(shifted)+len(pw.tail)), shifted...), pw.tail...)
		pw.keep = pos
	}
	pw.edited = true
	if op.fs.rangeCheck(child) != nil {
		return nil
	}
	cw, err := op.inode(child)
	if err != nil {
		return err
	}
	if cw.d.Mode != ModeFree && cw.d.Links > 0 {
		cw.d.Links--
		cw.dirty = true
	}
	return nil
}

// Free releases ino and all its data blocks. Tree inodes must be empty.
// Data blocks are not zeroed; see the package comment.
func (op *Op) Free(ino Ino) error {
	w, err := op.alive(ino)
	if err != nil {
		return err
	}
	if w.d.Mode == ModeTree {
		nonEmpty := w.d.Size > 0
		if w.idx != nil {
			nonEmpty = w.keep+len(w.tail) > 0
		}
		if nonEmpty {
			return fmt.Errorf("%w: inode %d", ErrTreeNotEmpty, ino)
		}
	}
	if err := op.fs.freeInodeBlocks(op.m, &w.d); err != nil {
		return err
	}
	// The zero inode is ModeFree: publishing it drops the tree's index.
	*w = opInode{ino: w.ino, fresh: w.fresh, dirty: true}
	return nil
}

// SetTag replaces the tag of ino.
func (op *Op) SetTag(ino Ino, tag string) error {
	if len(tag) > MaxTagLen {
		return fmt.Errorf("%w: %d bytes", ErrTagTooLong, len(tag))
	}
	w, err := op.alive(ino)
	if err != nil {
		return err
	}
	w.d.Tag = tag
	w.dirty = true
	return nil
}
