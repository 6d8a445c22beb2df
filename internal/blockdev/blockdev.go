// Package blockdev simulates the block storage hardware under rgpdOS.
//
// The paper's prototype targets real disks through uFS; this reproduction has
// no kernel or device access, so the device is simulated: a flat array of
// fixed-size blocks with an accounting latency model (simulated nanoseconds
// are counted, never slept) and optional fault injection. Everything above —
// the inode layer, the traditional file-based filesystem, and DBFS — performs
// I/O exclusively through this interface, which is also how the purpose-kernel
// model routes device access through dedicated IO-driver kernels.
//
// The device deliberately exposes its raw contents (ReadRaw) because the
// journal-leak tests (baseline TestJournalLeakViolation, rights
// TestEraseSubjectEndToEnd) must scan a disk image for residues of
// "deleted" personal data, exactly as a forensic tool would.
package blockdev

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/xrand"
)

// BlockSize is the size of every device block in bytes. 4 KiB matches the
// page-sized blocks used by uFS and ext4.
const BlockSize = 4096

// Sentinel errors returned by devices.
var (
	// ErrOutOfRange reports an access beyond the end of the device.
	ErrOutOfRange = errors.New("blockdev: block number out of range")
	// ErrBadSize reports a buffer whose length is not exactly BlockSize.
	ErrBadSize = errors.New("blockdev: buffer must be exactly one block")
	// ErrIO reports an injected device-level I/O failure.
	ErrIO = errors.New("blockdev: injected I/O error")
)

// Stats aggregates the operation counters of a device. Latency is simulated
// (accounted, not slept) so experiments can report device time without
// making the test suite slow.
type Stats struct {
	Reads        uint64
	Writes       uint64
	Syncs        uint64
	BytesRead    uint64
	BytesWritten uint64
	// SimLatency is the total simulated device time consumed.
	SimLatency time.Duration
	// Cache-visible counters, filled in by the Cached wrapper's Stats()
	// (see bcache.go); always zero on raw devices.
	CacheHits      uint64
	CacheMisses    uint64
	CacheEvictions uint64
	Writebacks     uint64
}

// LatencyModel assigns simulated costs to device operations. The defaults
// (see DefaultLatency) approximate a datacenter NVMe device; experiments
// sweep these to model slower media.
type LatencyModel struct {
	ReadCost  time.Duration // per block read
	WriteCost time.Duration // per block write
	SyncCost  time.Duration // per sync barrier
}

// DefaultLatency approximates NVMe flash: 10us reads, 20us writes, 50us
// flush barriers.
func DefaultLatency() LatencyModel {
	return LatencyModel{
		ReadCost:  10 * time.Microsecond,
		WriteCost: 20 * time.Microsecond,
		SyncCost:  50 * time.Microsecond,
	}
}

// Device is the block storage abstraction all filesystems in this repo sit
// on. Implementations must be safe for concurrent use. A buffer passed to
// WriteBlock or WriteBlocks belongs to the device from then on: the device
// may keep it as the block's image (Cached does), so the caller must not
// modify it again, and the device never writes into it. A read buffer stays
// the caller's: ReadBlock copies into it and retains nothing.
// kernel.RemoteDevice passes both kinds through by reference.
type Device interface {
	// ReadBlock copies block n into buf (len(buf) must be BlockSize).
	ReadBlock(n uint64, buf []byte) error
	// WriteBlock replaces block n with data (len(data) must be BlockSize).
	WriteBlock(n uint64, data []byte) error
	// NumBlocks reports the device capacity in blocks.
	NumBlocks() uint64
	// Sync flushes device caches; on the simulated device it is a barrier
	// that only advances counters.
	Sync() error
	// Stats returns a snapshot of the device counters.
	Stats() Stats
}

// VectorWriter is the optional fast path for multi-block writes. The WAL
// group-commit flush submits a whole commit group at once; devices that
// implement it (Mem: one lock acquisition, kernel.RemoteDevice: one bus
// message per batch, buffers passed by reference) amortize their
// per-operation cost across the batch. Writes are applied in slice order,
// so a later entry for the same block wins. An implementation may keep the
// data buffers but not ns: the caller may reuse ns once the call returns.
type VectorWriter interface {
	// WriteBlocks writes data[i] to block ns[i] for every i. len(ns) must
	// equal len(data) and every buffer must be exactly BlockSize.
	WriteBlocks(ns []uint64, data [][]byte) error
}

// WriteBlocks writes a batch through dev's VectorWriter when it has one,
// falling back to per-block writes otherwise.
func WriteBlocks(dev Device, ns []uint64, data [][]byte) error {
	if len(ns) != len(data) {
		return fmt.Errorf("blockdev: WriteBlocks: %d block numbers, %d buffers", len(ns), len(data))
	}
	if vw, ok := dev.(VectorWriter); ok {
		return vw.WriteBlocks(ns, data)
	}
	for i := range ns {
		if err := dev.WriteBlock(ns[i], data[i]); err != nil {
			return err
		}
	}
	return nil
}

// Mem is an in-memory simulated Device.
type Mem struct {
	mu      sync.RWMutex
	blocks  []byte
	nblocks uint64
	lat     LatencyModel
	stats   Stats
}

var _ Device = (*Mem)(nil)

// NewMem returns an in-memory device with n blocks and the given latency
// model. It returns an error if n is zero.
func NewMem(n uint64, lat LatencyModel) (*Mem, error) {
	if n == 0 {
		return nil, fmt.Errorf("blockdev: device must have at least one block")
	}
	return &Mem{
		blocks:  make([]byte, n*BlockSize),
		nblocks: n,
		lat:     lat,
	}, nil
}

// MustMem is NewMem for tests and examples where the size is a constant.
// It panics on error.
func MustMem(n uint64) *Mem {
	d, err := NewMem(n, DefaultLatency())
	if err != nil {
		panic(err)
	}
	return d
}

// ReadBlock implements Device.
func (m *Mem) ReadBlock(n uint64, buf []byte) error {
	if len(buf) != BlockSize {
		return ErrBadSize
	}
	m.mu.Lock()
	if n >= m.nblocks {
		m.mu.Unlock()
		return fmt.Errorf("%w: read block %d of %d", ErrOutOfRange, n, m.nblocks)
	}
	copy(buf, m.blocks[n*BlockSize:(n+1)*BlockSize])
	m.stats.Reads++
	m.stats.BytesRead += BlockSize
	m.stats.SimLatency += m.lat.ReadCost
	m.mu.Unlock()
	return nil
}

// WriteBlock implements Device.
func (m *Mem) WriteBlock(n uint64, data []byte) error {
	if len(data) != BlockSize {
		return ErrBadSize
	}
	m.mu.Lock()
	if n >= m.nblocks {
		m.mu.Unlock()
		return fmt.Errorf("%w: write block %d of %d", ErrOutOfRange, n, m.nblocks)
	}
	copy(m.blocks[n*BlockSize:(n+1)*BlockSize], data)
	m.stats.Writes++
	m.stats.BytesWritten += BlockSize
	m.stats.SimLatency += m.lat.WriteCost
	m.mu.Unlock()
	return nil
}

// NumBlocks implements Device.
func (m *Mem) NumBlocks() uint64 {
	return m.nblocks
}

// Sync implements Device.
func (m *Mem) Sync() error {
	m.mu.Lock()
	m.stats.Syncs++
	m.stats.SimLatency += m.lat.SyncCost
	m.mu.Unlock()
	return nil
}

// Stats implements Device.
func (m *Mem) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.stats
}

// WriteBlocks implements VectorWriter: the whole batch is applied under one
// lock acquisition, which is what makes a WAL group flush cheaper than the
// sum of its per-block writes.
func (m *Mem) WriteBlocks(ns []uint64, data [][]byte) error {
	if len(ns) != len(data) {
		return fmt.Errorf("blockdev: WriteBlocks: %d block numbers, %d buffers", len(ns), len(data))
	}
	for _, d := range data {
		if len(d) != BlockSize {
			return ErrBadSize
		}
	}
	m.mu.Lock()
	for i, n := range ns {
		if n >= m.nblocks {
			m.mu.Unlock()
			return fmt.Errorf("%w: write block %d of %d", ErrOutOfRange, n, m.nblocks)
		}
		copy(m.blocks[n*BlockSize:(n+1)*BlockSize], data[i])
		m.stats.Writes++
		m.stats.BytesWritten += BlockSize
		m.stats.SimLatency += m.lat.WriteCost
	}
	m.mu.Unlock()
	return nil
}

// ReadRaw copies the entire device image. It models pulling the disk out of
// the machine: no filesystem, no access control. The residue-scanning
// experiments use it to prove (or disprove) that deleted personal data is
// still recoverable from raw media.
func (m *Mem) ReadRaw() []byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]byte, len(m.blocks))
	copy(out, m.blocks)
	return out
}

// FindResidue scans the raw image of dev for every occurrence of pattern and
// returns the block numbers that contain at least one match. A non-empty
// result after a GDPR erasure is a right-to-be-forgotten violation.
func FindResidue(dev *Mem, pattern []byte) []uint64 {
	if len(pattern) == 0 {
		return nil
	}
	img := dev.ReadRaw()
	var hits []uint64
	seen := make(map[uint64]bool)
	for i := 0; i+len(pattern) <= len(img); i++ {
		if img[i] != pattern[0] {
			continue
		}
		match := true
		for j := 1; j < len(pattern); j++ {
			if img[i+j] != pattern[j] {
				match = false
				break
			}
		}
		if match {
			b := uint64(i) / BlockSize
			if !seen[b] {
				seen[b] = true
				hits = append(hits, b)
			}
		}
	}
	return hits
}

// FindResidueAny scans the raw image of dev once for every pattern and
// returns the number of (pattern, block) pairs with at least one plaintext
// match. One traversal replaces len(patterns) FindResidue passes, which is
// what post-run invariant checks sampling many erased secrets need; a
// non-zero result after a GDPR erasure is a right-to-be-forgotten
// violation.
func FindResidueAny(dev *Mem, patterns [][]byte) int {
	var first [256][]int
	nonEmpty := false
	for idx, p := range patterns {
		if len(p) > 0 {
			first[p[0]] = append(first[p[0]], idx)
			nonEmpty = true
		}
	}
	if !nonEmpty {
		return 0
	}
	img := dev.ReadRaw()
	seen := make(map[[2]uint64]bool)
	hits := 0
	for i := 0; i < len(img); i++ {
		cands := first[img[i]]
		if len(cands) == 0 {
			continue
		}
		for _, idx := range cands {
			p := patterns[idx]
			if i+len(p) > len(img) {
				continue
			}
			match := true
			for j := 1; j < len(p); j++ {
				if img[i+j] != p[j] {
					match = false
					break
				}
			}
			if match {
				key := [2]uint64{uint64(idx), uint64(i) / BlockSize}
				if !seen[key] {
					seen[key] = true
					hits++
				}
			}
		}
	}
	return hits
}

// Faulty wraps a Device and injects deterministic faults: whole-operation
// read errors and torn writes (only a prefix of the block is persisted).
// Crash-consistency tests for the journaled filesystems use it.
type Faulty struct {
	mu sync.Mutex

	dev Device
	rng *xrand.RNG

	readErrProb   float64
	tornWriteProb float64

	injectedReadErrs uint64
	tornWrites       uint64
}

var _ Device = (*Faulty)(nil)

// NewFaulty wraps dev with fault injection driven by rng. readErrProb and
// tornWriteProb are per-operation probabilities in [0, 1].
func NewFaulty(dev Device, rng *xrand.RNG, readErrProb, tornWriteProb float64) *Faulty {
	return &Faulty{
		dev:           dev,
		rng:           rng,
		readErrProb:   readErrProb,
		tornWriteProb: tornWriteProb,
	}
}

// ReadBlock implements Device, possibly failing with ErrIO.
func (f *Faulty) ReadBlock(n uint64, buf []byte) error {
	f.mu.Lock()
	fail := f.rng.Bool(f.readErrProb)
	if fail {
		f.injectedReadErrs++
	}
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("%w: read block %d", ErrIO, n)
	}
	return f.dev.ReadBlock(n, buf)
}

// WriteBlock implements Device. A torn write persists only the first half of
// the block and still reports success, modeling power loss mid-write.
func (f *Faulty) WriteBlock(n uint64, data []byte) error {
	f.mu.Lock()
	torn := f.rng.Bool(f.tornWriteProb)
	if torn {
		f.tornWrites++
	}
	f.mu.Unlock()
	if !torn {
		return f.dev.WriteBlock(n, data)
	}
	old := make([]byte, BlockSize)
	if err := f.dev.ReadBlock(n, old); err != nil {
		return err
	}
	mixed := make([]byte, BlockSize)
	copy(mixed, data[:BlockSize/2])
	copy(mixed[BlockSize/2:], old[BlockSize/2:])
	return f.dev.WriteBlock(n, mixed)
}

// NumBlocks implements Device.
func (f *Faulty) NumBlocks() uint64 { return f.dev.NumBlocks() }

// Sync implements Device.
func (f *Faulty) Sync() error { return f.dev.Sync() }

// Stats implements Device.
func (f *Faulty) Stats() Stats { return f.dev.Stats() }

// InjectedFaults reports how many read errors and torn writes were injected.
func (f *Faulty) InjectedFaults() (readErrs, tornWrites uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injectedReadErrs, f.tornWrites
}

// PowerCut wraps a Device and passes block writes through until a budget
// is spent, then fails every further write with ErrIO — the device
// equivalent of pulling the power cord mid commit. Crash tests put it UNDER
// a filesystem (and its buffer cache), run an operation, and remount from
// the wrapped device's bytes. It deliberately does not implement
// VectorWriter, so batched writes degrade to per-block writes and the cut
// lands at an exact block boundary.
type PowerCut struct {
	dev Device

	mu     sync.Mutex
	budget int // writes still allowed; negative = unlimited
}

var _ Device = (*PowerCut)(nil)

// NewPowerCut wraps dev with an unlimited budget.
func NewPowerCut(dev Device) *PowerCut { return &PowerCut{dev: dev, budget: -1} }

// SetBudget allows n more block writes; a negative n lifts the limit.
func (c *PowerCut) SetBudget(n int) {
	c.mu.Lock()
	c.budget = n
	c.mu.Unlock()
}

// ReadBlock implements Device.
func (c *PowerCut) ReadBlock(n uint64, buf []byte) error { return c.dev.ReadBlock(n, buf) }

// WriteBlock implements Device, failing once the budget is spent.
func (c *PowerCut) WriteBlock(n uint64, data []byte) error {
	c.mu.Lock()
	ok := c.budget != 0
	if ok && c.budget > 0 {
		c.budget--
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: power cut", ErrIO)
	}
	return c.dev.WriteBlock(n, data)
}

// NumBlocks implements Device.
func (c *PowerCut) NumBlocks() uint64 { return c.dev.NumBlocks() }

// Sync implements Device.
func (c *PowerCut) Sync() error { return c.dev.Sync() }

// Stats implements Device.
func (c *PowerCut) Stats() Stats { return c.dev.Stats() }

// Partition is a window [start, start+nblocks) onto a parent device. The
// per-shard inode filesystems each format one partition of the PD disk, so
// shard-disjoint mutations never share a superblock, bitmap or journal —
// exactly like giving every shard its own disk slice. Block numbers are
// partition-relative; the view composes with any Device, including the
// bus-routed kernel.RemoteDevice, so partition IO still crosses the
// IO-driver kernel.
type Partition struct {
	dev     Device
	start   uint64
	nblocks uint64
}

var (
	_ Device       = (*Partition)(nil)
	_ VectorWriter = (*Partition)(nil)
)

// NewPartition creates a view of dev covering [start, start+nblocks).
func NewPartition(dev Device, start, nblocks uint64) (*Partition, error) {
	if nblocks == 0 {
		return nil, fmt.Errorf("%w: partition must have at least one block", ErrOutOfRange)
	}
	if start+nblocks > dev.NumBlocks() {
		return nil, fmt.Errorf("%w: partition [%d,%d) beyond device end %d",
			ErrOutOfRange, start, start+nblocks, dev.NumBlocks())
	}
	return &Partition{dev: dev, start: start, nblocks: nblocks}, nil
}

func (p *Partition) check(n uint64) error {
	if n >= p.nblocks {
		return fmt.Errorf("%w: block %d of partition size %d", ErrOutOfRange, n, p.nblocks)
	}
	return nil
}

// ReadBlock implements Device.
func (p *Partition) ReadBlock(n uint64, buf []byte) error {
	if err := p.check(n); err != nil {
		return err
	}
	return p.dev.ReadBlock(p.start+n, buf)
}

// WriteBlock implements Device.
func (p *Partition) WriteBlock(n uint64, data []byte) error {
	if err := p.check(n); err != nil {
		return err
	}
	return p.dev.WriteBlock(p.start+n, data)
}

// shiftPool recycles the translated block-number slices of
// Partition.WriteBlocks; the parent keeps no ns past the call, so a slice
// is free again once the write returns.
var shiftPool = sync.Pool{New: func() any { return new([]uint64) }}

// WriteBlocks implements VectorWriter by translating the batch onto the
// parent (which may itself batch further, e.g. into one bus message). The
// translated numbers go in a pooled slice, never in the caller's.
func (p *Partition) WriteBlocks(ns []uint64, data [][]byte) error {
	if len(ns) != len(data) {
		return fmt.Errorf("blockdev: WriteBlocks: %d block numbers, %d buffers", len(ns), len(data))
	}
	for _, n := range ns {
		if err := p.check(n); err != nil {
			return err
		}
	}
	buf := shiftPool.Get().(*[]uint64)
	shifted := (*buf)[:0]
	for _, n := range ns {
		shifted = append(shifted, p.start+n)
	}
	err := WriteBlocks(p.dev, shifted, data)
	*buf = shifted
	shiftPool.Put(buf)
	return err
}

// NumBlocks implements Device.
func (p *Partition) NumBlocks() uint64 { return p.nblocks }

// Sync implements Device (a barrier on the parent device).
func (p *Partition) Sync() error { return p.dev.Sync() }

// Stats implements Device; counters live on the parent device, which all
// partitions share, so the view forwards the parent snapshot.
func (p *Partition) Stats() Stats { return p.dev.Stats() }
