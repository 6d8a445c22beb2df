// Package inode implements a uFS-style inode layer over a simulated block
// device, with write-ahead journaling for crash consistency.
//
// The paper's prototype (§3) re-architects uFS, keeping "the implementation
// of the inode concept" and building two major inode trees on top of it for
// DBFS. This package is that kept layer: fixed-size on-disk inodes with
// direct, single-indirect and double-indirect block pointers, an allocation
// bitmap, and named parent→child links so inodes form trees. Both DBFS
// (internal/dbfs) and the traditional file-based filesystem
// (internal/plainfs) are built on it.
//
// Concurrency: each inode in use has its own lock, taken on the caller's
// goroutine, so operations on different inodes run in parallel while
// operations on one inode serialize without any big lock. A shared
// write-back block buffer cache (blockdev.Cached) sits between the inode
// operations (and the journal's checkpoint writes) and the device,
// absorbing repeated block reads. See DESIGN.md "Inode locks & buffer
// cache".
//
// Deliberate realism: freeing an inode releases its blocks but does NOT zero
// them, and every mutation's pre-/post-images flow through the journal. Both
// behaviours match production filesystems and are exactly why a file-based
// OS below a "GDPR-compliant" database can violate the right to be forgotten
// (baseline TestJournalLeakViolation). rgpdOS's DBFS neutralizes them by
// storing only ciphertext in inodes (see internal/cryptoshred).
package inode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/simclock"
	"repro/internal/wal"
)

// Mode classifies an inode.
type Mode uint32

// Inode modes. ModeFree marks an unallocated table slot; its zero value is
// meaningful on disk, so the enum starts at zero deliberately.
const (
	ModeFree Mode = iota
	ModeFile
	ModeTree
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeFree:
		return "free"
	case ModeFile:
		return "file"
	case ModeTree:
		return "tree"
	default:
		return fmt.Sprintf("mode(%d)", uint32(m))
	}
}

// Ino is an inode number. 0 is never a valid inode; the root tree inode is 1.
type Ino uint64

// Layout constants.
const (
	magic   uint32 = 0x75465321 // "uFS!"
	version uint32 = 1

	// InodeSize is the on-disk inode record size.
	InodeSize = 256
	// InodesPerBlock is how many inodes fit in one device block.
	InodesPerBlock = blockdev.BlockSize / InodeSize

	// NumDirect is the number of direct block pointers per inode.
	NumDirect = 12
	// PtrsPerBlock is the number of block pointers in an indirect block.
	PtrsPerBlock = blockdev.BlockSize / 8

	// MaxTagLen is the longest tag string an inode can carry. DBFS uses
	// tags to label inode roles (schema, subject, record, membrane).
	MaxTagLen = 80

	// MaxFileBlocks is the per-inode capacity in blocks.
	MaxFileBlocks = NumDirect + PtrsPerBlock + PtrsPerBlock*PtrsPerBlock

	// RootIno is the inode number of the root tree, created by Format.
	RootIno Ino = 1

	// blocksPerTxnChunk bounds how many data blocks a single journal
	// transaction carries during large writes; bigger writes are split
	// into multiple transactions.
	blocksPerTxnChunk = 64

	// DefaultCacheBlocks is the buffer-cache capacity (in blocks) used
	// when Options.CacheBlocks is zero. 512 blocks = 2 MiB per FS
	// instance.
	DefaultCacheBlocks = 512
)

// Sentinel errors.
var (
	// ErrNotFormatted reports a device without a valid superblock.
	ErrNotFormatted = errors.New("inode: device is not formatted")
	// ErrBadInode reports an out-of-range or unallocated inode number.
	ErrBadInode = errors.New("inode: invalid inode")
	// ErrNoSpace reports block or inode exhaustion.
	ErrNoSpace = errors.New("inode: no space left on device")
	// ErrNotTree reports a tree operation on a non-tree inode.
	ErrNotTree = errors.New("inode: not a tree inode")
	// ErrChildExists reports an AddChild with a duplicate name.
	ErrChildExists = errors.New("inode: child name already exists")
	// ErrChildNotFound reports a missing child name.
	ErrChildNotFound = errors.New("inode: child not found")
	// ErrTagTooLong reports a tag above MaxTagLen.
	ErrTagTooLong = errors.New("inode: tag too long")
	// ErrFileTooBig reports a write beyond MaxFileBlocks.
	ErrFileTooBig = errors.New("inode: file exceeds maximum size")
	// ErrTreeNotEmpty reports freeing a tree that still has children.
	ErrTreeNotEmpty = errors.New("inode: tree has children")
)

// Info is the stat result for an inode.
type Info struct {
	Ino   Ino
	Mode  Mode
	Size  uint64
	MTime time.Time
	Tag   string
	// Links is the number of tree links pointing at this inode.
	Links uint32
}

// superblock describes the device layout. It lives in block 0.
type superblock struct {
	NBlocks       uint64
	NInodes       uint64
	BitmapStart   uint64
	BitmapBlocks  uint64
	InodeStart    uint64
	InodeBlocks   uint64
	JournalStart  uint64
	JournalBlocks uint64
	DataStart     uint64
}

// dinode is the in-memory form of an on-disk inode.
type dinode struct {
	Mode      Mode
	Links     uint32
	Size      uint64
	MTimeNano int64
	Direct    [NumDirect]uint64
	Indirect  uint64
	DblInd    uint64
	Tag       string
}

// Options configures Format.
type Options struct {
	// NInodes is the inode table capacity. Default 4096.
	NInodes uint64
	// JournalBlocks is the journal region size. Default 256.
	JournalBlocks uint64
	// Clock supplies mtimes. Default simclock.Real.
	Clock simclock.Clock
	// CacheBlocks bounds the shared write-back block buffer cache placed
	// between the inode layer (journal included) and the device, in
	// blocks. 0 selects DefaultCacheBlocks; negative disables the cache
	// entirely, so every read and write reaches the device (what
	// device-op counting rigs and crash tests want).
	CacheBlocks int
}

func (o *Options) withDefaults() {
	if o.NInodes == 0 {
		o.NInodes = 4096
	}
	if o.JournalBlocks == 0 {
		o.JournalBlocks = 256
	}
	if o.Clock == nil {
		o.Clock = simclock.Real{}
	}
}

// FS is a mounted inode filesystem. All methods are safe for concurrent
// use.
//
// Ownership model: every operation on an inode runs under that inode's
// lock (see exec), so per-inode state (the working dinode copy, its block
// pointers, its data blocks) has exactly one writer at a time. Metadata
// shared between inodes — the allocation bitmap and the inode table array —
// is guarded by metaMu; helpers suffixed *Locked require it, and the suffix
// is deliberate so a call site without the lock reads as wrong in review.
// metaMu is only ever held for in-memory staging (bitmap scans, table
// publishes, encoding blocks into a transaction), never across device
// reads, device writes, or durability waits.
//
// Durability: mutations stage a journal transaction under the inode locks,
// enqueue it inside one metaMu critical section (see mtx.enqueue for why
// snapshot order must equal enqueue order), and wait for the commit group
// outside every lock — which is what lets concurrent writers coalesce into
// WAL commit groups. Reads go through the journal's in-flight overlay
// (wal.Log.ReadThrough), then the block buffer cache, then the device.
//
// Every mutation is an operation scope (see Do in op.go): one transaction,
// one commit point, however many inodes and steps it spans.
//
// Lock ordering: inode locks, ascending → metaMu → wal internals → buffer
// cache. Multi-inode operations take inode locks in ascending inode order
// only (see execAll), so wait cycles cannot form.
type FS struct {
	dev   blockdev.Device // I/O path: the buffer cache when enabled, else the device handed to Format/Mount
	clock simclock.Clock
	sb    superblock
	log   *wal.Log
	// maxChunk bounds data blocks per journal transaction; it is derived
	// from the journal size so one transaction (data + staged metadata)
	// always fits the region.
	maxChunk int

	// metaMu guards the shared metadata mirrors: bitmap, itab, and every
	// transaction's stage-and-enqueue critical section.
	metaMu sync.Mutex
	bitmap []byte // in-memory block allocation bitmap, one bit per device block
	itab   []dinode
	// claimed marks table slots reserved by an open operation scope: free
	// in itab (so no transaction's image of the table block shows them)
	// but not available to other allocations. See Op.Alloc.
	claimed []bool
	// blkHint and inoHint are lowest-free hints for the two first-fit
	// scans: every data block below blkHint is allocated, every slot below
	// inoHint is allocated or claimed. Allocations advance them; frees,
	// aborts and released claims pull them back down, so the allocation
	// order is exactly the naive lowest-first scan's.
	blkHint uint64
	inoHint uint64

	// locksMu guards the per-inode lock registry and each entry's users
	// count. It is never held while waiting on an inode's lock.
	locksMu sync.Mutex
	locks   map[Ino]*ilock

	// trees holds the resident index of every tree inode used since Mount
	// (see treeIndex for who may read and publish one). The map is guarded
	// by metaMu.
	trees map[Ino]*treeIndex
}

// chunkLimit derives the per-transaction data-block budget from the journal
// size, reserving headroom for descriptor/commit blocks and staged metadata
// (inode table, bitmap, and indirect blocks).
func chunkLimit(journalBlocks uint64) int {
	const metaHeadroom = 10
	limit := int(journalBlocks) - metaHeadroom
	if limit < 1 {
		limit = 1
	}
	if limit > blocksPerTxnChunk {
		limit = blocksPerTxnChunk
	}
	return limit
}

// wrapCache places the buffer cache over dev according to opts.CacheBlocks,
// exempting the journal region (journal blocks are written once and
// replayed rarely; letting them churn the LRU would evict the hot metadata
// the cache exists to keep).
func wrapCache(dev blockdev.Device, cacheBlocks int, sb superblock) (blockdev.Device, error) {
	if cacheBlocks < 0 {
		return dev, nil
	}
	if cacheBlocks == 0 {
		cacheBlocks = DefaultCacheBlocks
	}
	bc, err := blockdev.NewCached(dev, cacheBlocks)
	if err != nil {
		return nil, err
	}
	bc.SetBypass(sb.JournalStart, sb.JournalBlocks)
	return bc, nil
}

// Format initializes dev with an empty filesystem and returns it mounted.
func Format(dev blockdev.Device, opts Options) (*FS, error) {
	opts.withDefaults()
	n := dev.NumBlocks()
	bitmapBlocks := (n/8 + blockdev.BlockSize - 1) / blockdev.BlockSize
	inodeBlocks := (opts.NInodes + InodesPerBlock - 1) / InodesPerBlock
	sb := superblock{
		NBlocks:       n,
		NInodes:       inodeBlocks * InodesPerBlock,
		BitmapStart:   1,
		BitmapBlocks:  bitmapBlocks,
		InodeStart:    1 + bitmapBlocks,
		InodeBlocks:   inodeBlocks,
		JournalStart:  1 + bitmapBlocks + inodeBlocks,
		JournalBlocks: opts.JournalBlocks,
	}
	sb.DataStart = sb.JournalStart + sb.JournalBlocks
	if sb.DataStart+8 > n {
		return nil, fmt.Errorf("%w: device too small (%d blocks, need > %d)", ErrNoSpace, n, sb.DataStart+8)
	}

	io, err := wrapCache(dev, opts.CacheBlocks, sb)
	if err != nil {
		return nil, fmt.Errorf("inode: buffer cache: %w", err)
	}
	fs := &FS{
		dev:      io,
		clock:    opts.Clock,
		sb:       sb,
		bitmap:   make([]byte, bitmapBlocks*blockdev.BlockSize),
		itab:     make([]dinode, sb.NInodes),
		claimed:  make([]bool, sb.NInodes),
		blkHint:  sb.DataStart,
		inoHint:  1,
		maxChunk: chunkLimit(sb.JournalBlocks),
		locks:    make(map[Ino]*ilock),
		trees:    make(map[Ino]*treeIndex),
	}
	// Mark metadata region (everything before DataStart) as allocated.
	for b := uint64(0); b < sb.DataStart; b++ {
		fs.bitmap[b/8] |= 1 << (b % 8)
	}

	// Persist superblock directly (pre-journal bootstrap write).
	buf := make([]byte, blockdev.BlockSize)
	binary.LittleEndian.PutUint32(buf[0:], magic)
	binary.LittleEndian.PutUint32(buf[4:], version)
	enc := buf[8:]
	for i, v := range []uint64{sb.NBlocks, sb.NInodes, sb.BitmapStart, sb.BitmapBlocks,
		sb.InodeStart, sb.InodeBlocks, sb.JournalStart, sb.JournalBlocks, sb.DataStart} {
		binary.LittleEndian.PutUint64(enc[8*i:], v)
	}
	if err := io.WriteBlock(0, buf); err != nil {
		return nil, fmt.Errorf("inode: write superblock: %w", err)
	}
	// Persist initial bitmap. The buffer cache keeps the slice it is
	// handed, so it gets a copy of the live bitmap.
	for i := uint64(0); i < bitmapBlocks; i++ {
		img := append([]byte(nil), fs.bitmap[i*blockdev.BlockSize:(i+1)*blockdev.BlockSize]...)
		if err := io.WriteBlock(sb.BitmapStart+i, img); err != nil {
			return nil, fmt.Errorf("inode: write bitmap: %w", err)
		}
	}
	// Persist empty inode table.
	zero := make([]byte, blockdev.BlockSize)
	for i := uint64(0); i < inodeBlocks; i++ {
		if err := io.WriteBlock(sb.InodeStart+i, zero); err != nil {
			return nil, fmt.Errorf("inode: write inode table: %w", err)
		}
	}
	if err := io.Sync(); err != nil {
		return nil, fmt.Errorf("inode: sync format: %w", err)
	}

	log, err := wal.Open(io, sb.JournalStart, sb.JournalBlocks)
	if err != nil {
		return nil, fmt.Errorf("inode: open journal: %w", err)
	}
	fs.log = log

	// Create the root tree inode (ino 1) through the normal journaled path.
	root, err := fs.AllocInode(ModeTree, "root")
	if err != nil {
		return nil, fmt.Errorf("inode: create root: %w", err)
	}
	if root != RootIno {
		return nil, fmt.Errorf("inode: root allocated as %d, want %d", root, RootIno)
	}
	return fs, nil
}

// Mount opens a previously formatted device: it validates the superblock,
// replays the journal, and loads the allocation bitmap and inode table. The
// buffer cache is enabled at DefaultCacheBlocks (Mount predates the cache
// option and keeps its signature).
func Mount(dev blockdev.Device, clock simclock.Clock) (*FS, error) {
	if clock == nil {
		clock = simclock.Real{}
	}
	buf := make([]byte, blockdev.BlockSize)
	if err := dev.ReadBlock(0, buf); err != nil {
		return nil, fmt.Errorf("inode: read superblock: %w", err)
	}
	if binary.LittleEndian.Uint32(buf[0:]) != magic {
		return nil, ErrNotFormatted
	}
	var sb superblock
	enc := buf[8:]
	vals := make([]uint64, 9)
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint64(enc[8*i:])
	}
	sb.NBlocks, sb.NInodes = vals[0], vals[1]
	sb.BitmapStart, sb.BitmapBlocks = vals[2], vals[3]
	sb.InodeStart, sb.InodeBlocks = vals[4], vals[5]
	sb.JournalStart, sb.JournalBlocks = vals[6], vals[7]
	sb.DataStart = vals[8]

	io, err := wrapCache(dev, 0, sb)
	if err != nil {
		return nil, fmt.Errorf("inode: buffer cache: %w", err)
	}
	log, err := wal.Open(io, sb.JournalStart, sb.JournalBlocks)
	if err != nil {
		return nil, fmt.Errorf("inode: open journal: %w", err)
	}
	// Recovery replays through the cache; wal.Recover ends with a device
	// Sync, which flushes the replayed home images to the raw device
	// before Mount returns.
	if _, err := log.Recover(); err != nil {
		return nil, fmt.Errorf("inode: journal recovery: %w", err)
	}

	fs := &FS{
		dev:      io,
		clock:    clock,
		sb:       sb,
		log:      log,
		bitmap:   make([]byte, sb.BitmapBlocks*blockdev.BlockSize),
		itab:     make([]dinode, sb.NInodes),
		claimed:  make([]bool, sb.NInodes),
		blkHint:  sb.DataStart,
		inoHint:  1,
		maxChunk: chunkLimit(sb.JournalBlocks),
		locks:    make(map[Ino]*ilock),
		trees:    make(map[Ino]*treeIndex),
	}
	for i := uint64(0); i < sb.BitmapBlocks; i++ {
		if err := io.ReadBlock(sb.BitmapStart+i, fs.bitmap[i*blockdev.BlockSize:(i+1)*blockdev.BlockSize]); err != nil {
			return nil, fmt.Errorf("inode: read bitmap: %w", err)
		}
	}
	for i := uint64(0); i < sb.InodeBlocks; i++ {
		if err := io.ReadBlock(sb.InodeStart+i, buf); err != nil {
			return nil, fmt.Errorf("inode: read inode table: %w", err)
		}
		for j := 0; j < InodesPerBlock; j++ {
			idx := i*InodesPerBlock + uint64(j)
			if idx >= sb.NInodes {
				break
			}
			fs.itab[idx] = decodeInode(buf[j*InodeSize : (j+1)*InodeSize])
		}
	}
	return fs, nil
}

// JournalStats exposes the journal counters.
func (fs *FS) JournalStats() wal.Stats { return fs.log.Stats() }

// CacheStats reports the device counters as seen through the buffer cache:
// hit/miss/eviction/writeback counts merged with the underlying device
// stats. With the cache disabled the cache counters are zero.
func (fs *FS) CacheStats() blockdev.Stats { return fs.dev.Stats() }

// UsedBlocks reports how many device blocks are currently allocated
// (metadata region included) — the footprint number the cold-tier
// experiment compares across configurations.
func (fs *FS) UsedBlocks() uint64 {
	fs.metaMu.Lock()
	defer fs.metaMu.Unlock()
	var n uint64
	for _, b := range fs.bitmap {
		n += uint64(bits.OnesCount8(b))
	}
	return n
}

// --- per-inode locks ---

// ilock is the lock of one inode in use. users counts the callers that hold
// or wait for it; it is guarded by fs.locksMu, and the entry leaves the
// registry when it drops to zero, so the registry only ever holds the
// inodes in use.
type ilock struct {
	sync.Mutex
	users int
}

// lock takes ino's lock on the caller's goroutine, creating its registry
// entry on first use. locksMu is released before waiting on the entry.
func (fs *FS) lock(ino Ino) {
	fs.locksMu.Lock()
	l := fs.locks[ino]
	if l == nil {
		l = &ilock{}
		fs.locks[ino] = l
	}
	l.users++
	fs.locksMu.Unlock()
	l.Lock()
}

// unlock releases ino's lock and drops its entry once no caller holds or
// waits for it. Release and drop happen in one locksMu section, so a caller
// that finds no entry can never lock a fresh one beside the old holder.
func (fs *FS) unlock(ino Ino) {
	fs.locksMu.Lock()
	l := fs.locks[ino]
	l.Unlock()
	if l.users--; l.users == 0 {
		delete(fs.locks, ino)
	}
	fs.locksMu.Unlock()
}

// exec runs fn while holding ino's lock.
func (fs *FS) exec(ino Ino, fn func()) { fs.execAll([]Ino{ino}, fn) }

// execAll runs fn while holding the locks of every inode in inos, which
// must be ascending and distinct (Do sorts its declared set). Locks are
// taken in that order, so a caller only ever waits on an inode strictly
// higher than every one it holds and no wait cycle (deadlock) can form,
// whatever order the callers named the inodes in.
func (fs *FS) execAll(inos []Ino, fn func()) {
	for _, ino := range inos {
		fs.lock(ino)
	}
	defer func() {
		for _, ino := range inos {
			fs.unlock(ino)
		}
	}()
	fn()
}

// --- inode encoding ---

func encodeInode(d dinode, out []byte) {
	binary.LittleEndian.PutUint32(out[0:], uint32(d.Mode))
	binary.LittleEndian.PutUint32(out[4:], d.Links)
	binary.LittleEndian.PutUint64(out[8:], d.Size)
	binary.LittleEndian.PutUint64(out[16:], uint64(d.MTimeNano))
	for i := 0; i < NumDirect; i++ {
		binary.LittleEndian.PutUint64(out[24+8*i:], d.Direct[i])
	}
	binary.LittleEndian.PutUint64(out[24+8*NumDirect:], d.Indirect)
	binary.LittleEndian.PutUint64(out[32+8*NumDirect:], d.DblInd)
	tagOff := 40 + 8*NumDirect
	binary.LittleEndian.PutUint16(out[tagOff:], uint16(len(d.Tag)))
	copy(out[tagOff+2:tagOff+2+MaxTagLen], d.Tag)
}

func decodeInode(in []byte) dinode {
	var d dinode
	d.Mode = Mode(binary.LittleEndian.Uint32(in[0:]))
	d.Links = binary.LittleEndian.Uint32(in[4:])
	d.Size = binary.LittleEndian.Uint64(in[8:])
	d.MTimeNano = int64(binary.LittleEndian.Uint64(in[16:]))
	for i := 0; i < NumDirect; i++ {
		d.Direct[i] = binary.LittleEndian.Uint64(in[24+8*i:])
	}
	d.Indirect = binary.LittleEndian.Uint64(in[24+8*NumDirect:])
	d.DblInd = binary.LittleEndian.Uint64(in[32+8*NumDirect:])
	tagOff := 40 + 8*NumDirect
	n := binary.LittleEndian.Uint16(in[tagOff:])
	if n > MaxTagLen {
		n = MaxTagLen
	}
	d.Tag = string(in[tagOff+2 : tagOff+2+int(n)])
	return d
}

// --- shared-metadata helpers ---
//
// Helpers suffixed *Locked require fs.metaMu; everything else here takes
// and releases it internally. None of them touch the device: metaMu covers
// in-memory staging only.

// rangeCheck rejects inode numbers outside the table. The superblock is
// immutable after mount, so no lock is needed.
func (fs *FS) rangeCheck(ino Ino) error {
	if ino == 0 || uint64(ino) >= fs.sb.NInodes {
		return fmt.Errorf("%w: %d", ErrBadInode, ino)
	}
	return nil
}

// loadInode snapshots ino's table slot. Every table-slot write happens
// under metaMu, so the copy is taken under it too; within an operation that
// holds the inode's lock the copy is then private until it is published back
// at enqueue.
func (fs *FS) loadInode(ino Ino) dinode {
	fs.metaMu.Lock()
	d := fs.itab[ino]
	fs.metaMu.Unlock()
	return d
}

// loadAlive snapshots ino's slot and rejects free slots.
func (fs *FS) loadAlive(ino Ino) (dinode, error) {
	d := fs.loadInode(ino)
	if d.Mode == ModeFree {
		return d, fmt.Errorf("%w: %d is free", ErrBadInode, ino)
	}
	return d, nil
}

// readBlock reads block n, preferring the image buffered in tx (a
// transaction observes its own writes), then any enqueued-but-not-yet-
// checkpointed image in the journal overlay, then the buffer cache, then
// the device. Runs without locks; the caller owns the relevant inode.
func (fs *FS) readBlock(tx *wal.Txn, n uint64, buf []byte) error {
	if tx != nil && tx.Read(n, buf) {
		return nil
	}
	return fs.log.ReadThrough(n, buf)
}

// --- metadata transactions ---

// mtx wraps one journal transaction with the deferred shared-metadata
// bookkeeping that replaces staging under a big lock: block allocations
// claim their bitmap bit immediately (under a brief metaMu) so no
// concurrent transaction can hand the same block out twice, while block
// frees — the direction that can corrupt, not merely leak — are deferred
// entirely to the enqueue critical section.
type mtx struct {
	fs     *FS
	tx     *wal.Txn
	allocs []uint64
	frees  []uint64
}

func (fs *FS) begin() *mtx { return &mtx{fs: fs, tx: fs.log.Begin()} }

func (m *mtx) readBlock(n uint64, buf []byte) error { return m.fs.readBlock(m.tx, n, buf) }

// alloc claims the lowest free data block. The bit is set in memory now,
// but the bitmap block is staged only at enqueue and the bit is released
// again if the transaction aborts. A crash can therefore expose a durable
// set bit whose transaction never committed — a space leak, never
// corruption.
func (m *mtx) alloc() (uint64, error) {
	fs := m.fs
	fs.metaMu.Lock()
	defer fs.metaMu.Unlock()
	for b := fs.blkHint; b < fs.sb.NBlocks; b++ {
		if fs.bitmap[b/8]&(1<<(b%8)) == 0 {
			fs.bitmap[b/8] |= 1 << (b % 8)
			fs.blkHint = b + 1
			m.allocs = append(m.allocs, b)
			return b, nil
		}
	}
	fs.blkHint = fs.sb.NBlocks
	return 0, ErrNoSpace
}

// clearBitsLocked marks blocks free in the in-memory bitmap.
func (fs *FS) clearBitsLocked(blocks []uint64) {
	for _, b := range blocks {
		fs.bitmap[b/8] &^= 1 << (b % 8)
		if b < fs.blkHint {
			fs.blkHint = b
		}
	}
}

// free schedules block b for release. Both the in-memory bit clear and the
// bitmap staging are deferred to enqueue: if the clear were visible
// earlier, a concurrent transaction could commit a bitmap image showing
// the block free while the transaction justifying the free is still torn,
// and a remount would double-allocate the block. The block contents are
// NOT zeroed — the same residue semantics as ext4.
func (m *mtx) free(b uint64) error {
	if b < m.fs.sb.DataStart || b >= m.fs.sb.NBlocks {
		return fmt.Errorf("inode: freeBlock %d outside data region", b)
	}
	m.frees = append(m.frees, b)
	return nil
}

// claimSlot reserves the lowest free inode table slot for an operation
// scope. The slot stays ModeFree in the table until the scope publishes it.
func (fs *FS) claimSlot() (Ino, error) {
	fs.metaMu.Lock()
	defer fs.metaMu.Unlock()
	for i := fs.inoHint; i < fs.sb.NInodes; i++ {
		if fs.itab[i].Mode == ModeFree && !fs.claimed[i] {
			fs.claimed[i] = true
			fs.inoHint = i + 1
			return Ino(i), nil
		}
	}
	fs.inoHint = fs.sb.NInodes
	return 0, fmt.Errorf("%w: inode table full", ErrNoSpace)
}

// releaseSlotLocked drops any reservation of slot ino and, if the slot is
// free in the table (an aborted claim, or an inode just published as
// freed), makes it the allocator's next candidate again.
func (fs *FS) releaseSlotLocked(ino Ino) {
	fs.claimed[ino] = false
	if fs.itab[ino].Mode == ModeFree && uint64(ino) < fs.inoHint {
		fs.inoHint = uint64(ino)
	}
}

// addBlock appends b to the small set s unless present.
func addBlock(s []uint64, b uint64) []uint64 {
	for _, x := range s {
		if x == b {
			return s
		}
	}
	return append(s, b)
}

// stageItabBlockLocked encodes inode-table block ib into the transaction:
// each slot from the in-memory table, except that the dirty working copies
// in ws stand in for their slots (they are published only once the
// enqueue has succeeded). No device read is needed: the table mirror is
// authoritative, and because every stage-and-enqueue happens in one metaMu
// critical section, snapshot order equals commit order — the journal can
// never flush a newer image of the block before an older one.
func (m *mtx) stageItabBlockLocked(ib uint64, ws []*opInode) error {
	fs := m.fs
	buf := make([]byte, blockdev.BlockSize)
	base := ib * InodesPerBlock
	for j := uint64(0); j < InodesPerBlock && base+j < fs.sb.NInodes; j++ {
		d := &fs.itab[base+j]
		for _, w := range ws {
			if w.dirty && uint64(w.ino) == base+j {
				d = &w.d
			}
		}
		encodeInode(*d, buf[j*InodeSize:(j+1)*InodeSize])
	}
	return m.tx.Write(fs.sb.InodeStart+ib, buf)
}

// enqueue is the commit point of an operation: one metaMu critical section
// applies the deferred frees, stages every touched bitmap block and inode
// table block, enqueues the transaction, and publishes the dirty working
// copies (slots a scope held privately become real table entries here).
// Fusing snapshot and enqueue makes snapshot order equal commit order: the
// WAL flushes groups strictly in enqueue order and aborts wholesale on
// failure, so the newest durable image of a shared block always reflects
// every earlier published update, and an image captured "too early" by a
// later transaction can never become durable before its own transaction.
// On error nothing is published, the deferred frees are rolled back (still
// allocated, worst case a leak) and the returned error is the operation's
// outcome.
func (m *mtx) enqueue(ws []*opInode) (*wal.Ticket, error) {
	fs := m.fs
	fs.metaMu.Lock()
	defer fs.metaMu.Unlock()
	hint := fs.blkHint
	fs.clearBitsLocked(m.frees)
	tk, err := m.stageAndEnqueueLocked(ws)
	if err != nil {
		for _, b := range m.frees {
			fs.bitmap[b/8] |= 1 << (b % 8)
		}
		fs.blkHint = hint
		return nil, err
	}
	for _, w := range ws {
		if !w.dirty {
			continue
		}
		fs.itab[w.ino] = w.d
		fs.publishTreeLocked(w)
		w.dirty, w.fresh = false, false
		fs.releaseSlotLocked(w.ino)
	}
	return tk, nil
}

// stageAndEnqueueLocked stages the bitmap blocks of every allocation and
// free and the table blocks of every dirty working copy, then enqueues.
func (m *mtx) stageAndEnqueueLocked(ws []*opInode) (*wal.Ticket, error) {
	fs := m.fs
	var set [8]uint64
	blocks := set[:0]
	for _, b := range m.allocs {
		blocks = addBlock(blocks, (b/8)/blockdev.BlockSize)
	}
	for _, b := range m.frees {
		blocks = addBlock(blocks, (b/8)/blockdev.BlockSize)
	}
	for _, bm := range blocks {
		// The transaction keeps the slice it is given, and the live bitmap
		// changes under the next allocation: stage a copy.
		start := bm * blockdev.BlockSize
		img := append([]byte(nil), fs.bitmap[start:start+blockdev.BlockSize]...)
		if err := m.tx.Write(fs.sb.BitmapStart+bm, img); err != nil {
			return nil, err
		}
	}
	blocks = set[:0]
	for _, w := range ws {
		if w.dirty {
			blocks = addBlock(blocks, uint64(w.ino)/InodesPerBlock)
		}
	}
	for _, ib := range blocks {
		if err := m.stageItabBlockLocked(ib, ws); err != nil {
			return nil, err
		}
	}
	return m.tx.Enqueue()
}

// abort abandons the transaction and releases any blocks it allocated.
func (m *mtx) abort() {
	m.tx.Abort()
	if len(m.allocs) > 0 {
		m.fs.metaMu.Lock()
		m.fs.clearBitsLocked(m.allocs)
		m.fs.metaMu.Unlock()
	}
	m.allocs, m.frees = nil, nil
}

// waitTickets waits for every enqueued transaction of an operation (more
// than one only when it spilled), returning the first error. Must be
// called outside every lock, inode locks included.
func waitTickets(tks []*wal.Ticket) error {
	var first error
	for _, tk := range tks {
		if err := tk.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// --- public API ---
//
// Each mutating call below is a one-step operation scope (op.go).

// AllocInode allocates a fresh inode of the given mode with an optional
// tag. No inode lock is taken: the slot has no owner until this returns.
func (fs *FS) AllocInode(mode Mode, tag string) (Ino, error) {
	var ino Ino
	err := fs.Do(nil, func(op *Op) (err error) {
		ino, err = op.Alloc(mode, tag)
		return err
	})
	if err != nil {
		return 0, err
	}
	return ino, nil
}

// FreeInode releases ino and all its data blocks. Tree inodes must be empty.
// Data blocks are not zeroed; see the package comment.
func (fs *FS) FreeInode(ino Ino) error {
	return fs.Do([]Ino{ino}, func(op *Op) error { return op.Free(ino) })
}

// freeInodeBlocks releases every data block mapped by the working copy d,
// clearing its pointers. The frees are deferred inside m; reads go through
// the transaction so the walk observes its own structure edits.
func (fs *FS) freeInodeBlocks(m *mtx, d *dinode) error {
	for i := 0; i < NumDirect; i++ {
		if d.Direct[i] != 0 {
			if err := m.free(d.Direct[i]); err != nil {
				return err
			}
			d.Direct[i] = 0
		}
	}
	freeIndirect := func(ptrBlock uint64) error {
		buf := make([]byte, blockdev.BlockSize)
		if err := m.readBlock(ptrBlock, buf); err != nil {
			return err
		}
		for j := 0; j < PtrsPerBlock; j++ {
			p := binary.LittleEndian.Uint64(buf[8*j:])
			if p != 0 {
				if err := m.free(p); err != nil {
					return err
				}
			}
		}
		return m.free(ptrBlock)
	}
	if d.Indirect != 0 {
		if err := freeIndirect(d.Indirect); err != nil {
			return err
		}
		d.Indirect = 0
	}
	if d.DblInd != 0 {
		buf := make([]byte, blockdev.BlockSize)
		if err := m.readBlock(d.DblInd, buf); err != nil {
			return err
		}
		for j := 0; j < PtrsPerBlock; j++ {
			p := binary.LittleEndian.Uint64(buf[8*j:])
			if p != 0 {
				if err := freeIndirect(p); err != nil {
					return err
				}
			}
		}
		if err := m.free(d.DblInd); err != nil {
			return err
		}
		d.DblInd = 0
	}
	return nil
}

// SecureFreeInode zeroes every data block of ino before releasing it. This
// is the "shred" variant used in ablation experiments; it defeats free-space
// residue but NOT journal residue (old images are already logged). The
// barrier and the raw zero pass are part of the operation, so this is
// always a scope of its own.
func (fs *FS) SecureFreeInode(ino Ino) error {
	return fs.Do([]Ino{ino}, func(op *Op) error {
		// Drain the commit queue first: a queued checkpoint landing after
		// the zero pass would resurrect the very bytes this variant
		// scrubs. (The committer never takes an inode lock, so waiting
		// here cannot deadlock.)
		fs.log.Barrier()
		w, err := op.alive(ino)
		if err != nil {
			return err
		}
		// One zero block serves every write: the cache may keep it for
		// several blocks, and nothing writes into it.
		zero := make([]byte, blockdev.BlockSize)
		nblocks := (w.d.Size + blockdev.BlockSize - 1) / blockdev.BlockSize
		// Zero pass: direct device writes bypass the journal on purpose —
		// a journaled zero write would log the zeros, not remove old
		// images, and the point of this variant is to scrub home
		// locations only. Through the buffer cache these zeros are dirty
		// until the freeing transaction's commit group flushes; that
		// flush ends with a device Sync, which drains them to the raw
		// device before the durability wait returns.
		for bi := uint64(0); bi < nblocks; bi++ {
			phys, err := fs.bmap(nil, &w.d, bi, false)
			if err != nil {
				return err
			}
			if phys == 0 {
				continue
			}
			if err := fs.dev.WriteBlock(phys, zero); err != nil {
				return err
			}
		}
		return op.Free(ino)
	})
}

// Stat returns metadata for ino. It reads the table mirror directly (one
// metaMu snapshot) rather than waiting for the inode's lock: slot
// publishes are atomic under metaMu, so the snapshot is always a committed
// operation boundary.
func (fs *FS) Stat(ino Ino) (Info, error) {
	if err := fs.rangeCheck(ino); err != nil {
		return Info{}, err
	}
	d, err := fs.loadAlive(ino)
	if err != nil {
		return Info{}, err
	}
	return Info{
		Ino:   ino,
		Mode:  d.Mode,
		Size:  d.Size,
		MTime: time.Unix(0, d.MTimeNano).UTC(),
		Tag:   d.Tag,
		Links: d.Links,
	}, nil
}

// bmap maps file-relative block bi of the working copy d to a device
// block. With alloc, missing blocks (and indirect blocks) are allocated
// inside m's transaction (m may be nil only when alloc is false). Returns
// 0 for a hole when alloc is false. The caller owns d's inode.
func (fs *FS) bmap(m *mtx, d *dinode, bi uint64, alloc bool) (uint64, error) {
	var tx *wal.Txn
	if m != nil {
		tx = m.tx
	}
	if bi < NumDirect {
		if d.Direct[bi] == 0 && alloc {
			b, err := m.alloc()
			if err != nil {
				return 0, err
			}
			d.Direct[bi] = b
		}
		return d.Direct[bi], nil
	}
	bi -= NumDirect

	// loadPtr reads slot within ptrBlock, allocating through it if needed.
	loadPtr := func(ptrBlock uint64, slot uint64) (uint64, error) {
		buf := make([]byte, blockdev.BlockSize)
		if err := fs.readBlock(tx, ptrBlock, buf); err != nil {
			return 0, err
		}
		p := binary.LittleEndian.Uint64(buf[8*slot:])
		if p == 0 && alloc {
			b, err := m.alloc()
			if err != nil {
				return 0, err
			}
			binary.LittleEndian.PutUint64(buf[8*slot:], b)
			if err := tx.Write(ptrBlock, buf); err != nil {
				return 0, err
			}
			p = b
		}
		return p, nil
	}

	if bi < PtrsPerBlock {
		if d.Indirect == 0 {
			if !alloc {
				return 0, nil
			}
			b, err := m.alloc()
			if err != nil {
				return 0, err
			}
			// Fresh pointer block must be zeroed in the txn image.
			if err := tx.Write(b, make([]byte, blockdev.BlockSize)); err != nil {
				return 0, err
			}
			d.Indirect = b
		}
		return loadPtr(d.Indirect, bi)
	}
	bi -= PtrsPerBlock
	if bi >= PtrsPerBlock*PtrsPerBlock {
		return 0, fmt.Errorf("%w: block index %d", ErrFileTooBig, bi)
	}
	if d.DblInd == 0 {
		if !alloc {
			return 0, nil
		}
		b, err := m.alloc()
		if err != nil {
			return 0, err
		}
		if err := tx.Write(b, make([]byte, blockdev.BlockSize)); err != nil {
			return 0, err
		}
		d.DblInd = b
	}
	l1Slot, l2Slot := bi/PtrsPerBlock, bi%PtrsPerBlock
	l1, err := fs.loadPtrBlock(m, d.DblInd, l1Slot, alloc)
	if err != nil {
		return 0, err
	}
	if l1 == 0 {
		return 0, nil
	}
	return loadPtr(l1, l2Slot)
}

// loadPtrBlock resolves (and with alloc, creates) the level-1 pointer
// block at slot within the double-indirect block dbl. New pointer blocks
// are zero-initialized inside the transaction. m may be nil only when
// alloc is false.
func (fs *FS) loadPtrBlock(m *mtx, dbl, slot uint64, alloc bool) (uint64, error) {
	var tx *wal.Txn
	if m != nil {
		tx = m.tx
	}
	buf := make([]byte, blockdev.BlockSize)
	if err := fs.readBlock(tx, dbl, buf); err != nil {
		return 0, err
	}
	p := binary.LittleEndian.Uint64(buf[8*slot:])
	if p == 0 && alloc {
		b, err := m.alloc()
		if err != nil {
			return 0, err
		}
		if err := tx.Write(b, make([]byte, blockdev.BlockSize)); err != nil {
			return 0, err
		}
		binary.LittleEndian.PutUint64(buf[8*slot:], b)
		if err := tx.Write(dbl, buf); err != nil {
			return 0, err
		}
		p = b
	}
	return p, nil
}

// WriteAt writes p at byte offset off in ino, extending the file as needed.
// It returns len(p) once the write is durable. A write that stages more
// blocks than one journal transaction carries spills into consecutive
// transactions (see the scope's spill rule), each individually atomic; on
// error the count is 0 even if leading chunks of such a write landed.
func (fs *FS) WriteAt(ino Ino, off uint64, p []byte) (int, error) {
	if err := fs.Do([]Ino{ino}, func(op *Op) error { return op.Write(ino, off, p) }); err != nil {
		return 0, err
	}
	return len(p), nil
}

// ReadAt reads into p from byte offset off. It returns the number of bytes
// read; reads beyond the file size are truncated, and a read starting at or
// past the end returns 0 with no error (the caller checks Size via Stat).
// The read runs under the inode's lock, so it never observes a torn
// multi-block write on its inode — but reads of different inodes proceed
// in parallel.
func (fs *FS) ReadAt(ino Ino, off uint64, p []byte) (int, error) {
	if err := fs.rangeCheck(ino); err != nil {
		return 0, err
	}
	var (
		read  int
		opErr error
	)
	fs.exec(ino, func() {
		d, err := fs.loadAlive(ino)
		if err != nil {
			opErr = err
			return
		}
		if off >= d.Size {
			return
		}
		if off+uint64(len(p)) > d.Size {
			p = p[:d.Size-off]
		}
		buf := make([]byte, blockdev.BlockSize)
		for read < len(p) {
			cur := off + uint64(read)
			bi := cur / blockdev.BlockSize
			bo := cur % blockdev.BlockSize
			n := blockdev.BlockSize - bo
			if int(n) > len(p)-read {
				n = uint64(len(p) - read)
			}
			phys, err := fs.bmap(nil, &d, bi, false)
			if err != nil {
				opErr = err
				return
			}
			if phys == 0 {
				// Hole: zeros.
				for i := uint64(0); i < n; i++ {
					p[read+int(i)] = 0
				}
			} else {
				if err := fs.readBlock(nil, phys, buf); err != nil {
					opErr = err
					return
				}
				copy(p[read:read+int(n)], buf[bo:bo+n])
			}
			read += int(n)
		}
	})
	return read, opErr
}

// Truncate shrinks ino to size (growing is done by WriteAt). Whole blocks
// past the new end are freed; the partial tail block is not scrubbed.
func (fs *FS) Truncate(ino Ino, size uint64) error {
	return fs.Do([]Ino{ino}, func(op *Op) error { return op.Truncate(ino, size) })
}

// clearMapping zeroes the pointer to file block bi (direct or indirect) in
// the working copy d. Indirect pointer blocks are left allocated for
// simplicity; FreeInode reclaims them.
func (fs *FS) clearMapping(m *mtx, d *dinode, bi uint64) error {
	if bi < NumDirect {
		d.Direct[bi] = 0
		return nil
	}
	bi -= NumDirect
	clearSlot := func(ptrBlock, slot uint64) error {
		buf := make([]byte, blockdev.BlockSize)
		if err := m.readBlock(ptrBlock, buf); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(buf[8*slot:], 0)
		return m.tx.Write(ptrBlock, buf)
	}
	if bi < PtrsPerBlock {
		if d.Indirect == 0 {
			return nil
		}
		return clearSlot(d.Indirect, bi)
	}
	bi -= PtrsPerBlock
	if d.DblInd == 0 {
		return nil
	}
	l1, err := fs.loadPtrBlock(m, d.DblInd, bi/PtrsPerBlock, false)
	if err != nil || l1 == 0 {
		return err
	}
	return clearSlot(l1, bi%PtrsPerBlock)
}

// FreeBlocks reports how many data blocks are unallocated.
func (fs *FS) FreeBlocks() uint64 {
	fs.metaMu.Lock()
	defer fs.metaMu.Unlock()
	var free uint64
	for b := fs.sb.DataStart; b < fs.sb.NBlocks; b++ {
		if fs.bitmap[b/8]&(1<<(b%8)) == 0 {
			free++
		}
	}
	return free
}
