package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// flakyDev injects togglable read/write failures under the cache, so tests
// control exactly which operation fails (unlike Faulty's probabilistic
// injection).
type flakyDev struct {
	dev *Mem

	mu         sync.Mutex
	failReads  bool
	failWrites bool
}

func (f *flakyDev) set(reads, writes bool) {
	f.mu.Lock()
	f.failReads, f.failWrites = reads, writes
	f.mu.Unlock()
}

func (f *flakyDev) ReadBlock(n uint64, buf []byte) error {
	f.mu.Lock()
	fail := f.failReads
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("%w: read block %d", ErrIO, n)
	}
	return f.dev.ReadBlock(n, buf)
}

func (f *flakyDev) WriteBlock(n uint64, data []byte) error {
	f.mu.Lock()
	fail := f.failWrites
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("%w: write block %d", ErrIO, n)
	}
	return f.dev.WriteBlock(n, data)
}

func (f *flakyDev) NumBlocks() uint64 { return f.dev.NumBlocks() }
func (f *flakyDev) Sync() error       { return f.dev.Sync() }
func (f *flakyDev) Stats() Stats      { return f.dev.Stats() }

func pat(v byte) []byte {
	b := make([]byte, BlockSize)
	for i := range b {
		b[i] = v
	}
	return b
}

// TestCachedReadThrough: a miss fills from the device and counts once; the
// repeat read is a hit served from memory with no device traffic.
func TestCachedReadThrough(t *testing.T) {
	mem := MustMem(32)
	if err := mem.WriteBlock(5, pat(0xAA)); err != nil {
		t.Fatal(err)
	}
	c, err := NewCached(mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	base := mem.Stats().Reads
	buf := make([]byte, BlockSize)
	for i := 0; i < 3; i++ {
		if err := c.ReadBlock(5, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, pat(0xAA)) {
			t.Fatalf("read %d returned wrong data", i)
		}
	}
	s := c.Stats()
	if s.CacheMisses != 1 || s.CacheHits != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/1", s.CacheHits, s.CacheMisses)
	}
	if got := mem.Stats().Reads - base; got != 1 {
		t.Fatalf("device reads = %d, want 1 (cache must absorb repeats)", got)
	}
}

// TestCachedWriteBackDeferred: a write dirties the cache only; the device
// sees it at Sync, after which the data is durable.
func TestCachedWriteBackDeferred(t *testing.T) {
	mem := MustMem(32)
	c, err := NewCached(mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBlock(7, pat(0xBB)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, BlockSize)
	if err := mem.ReadBlock(7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, BlockSize)) {
		t.Fatal("write reached the device before Sync (write-back broken)")
	}
	// The cache itself must serve the buffered image.
	if err := c.ReadBlock(7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat(0xBB)) {
		t.Fatal("cache lost the buffered write")
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := mem.ReadBlock(7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat(0xBB)) {
		t.Fatal("Sync did not flush the dirty block")
	}
	if s := c.Stats(); s.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", s.Writebacks)
	}
}

// TestCachedLRUBound: the cache never exceeds its capacity, and dirty
// victims are written back on eviction rather than dropped.
func TestCachedLRUBound(t *testing.T) {
	mem := MustMem(64)
	c, err := NewCached(mem, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		if err := c.WriteBlock(10+i, pat(byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if n := cachedLen(c); n > 4 {
		t.Fatalf("cache holds %d blocks, cap 4", n)
	}
	s := c.Stats()
	if s.CacheEvictions < 4 {
		t.Fatalf("evictions = %d, want >= 4", s.CacheEvictions)
	}
	// The four oldest blocks were evicted dirty; their data must be on the
	// device already.
	got := make([]byte, BlockSize)
	for i := uint64(0); i < 4; i++ {
		if err := mem.ReadBlock(10+i, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pat(byte(i+1))) {
			t.Fatalf("evicted block %d not written back", 10+i)
		}
	}
	// Everything survives a full flush.
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		if err := mem.ReadBlock(10+i, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pat(byte(i+1))) {
			t.Fatalf("block %d lost", 10+i)
		}
	}
}

// TestCachedReadErrorNoPoison: a failed miss fill must not leave a cache
// entry behind; once the device recovers, the real data is served.
func TestCachedReadErrorNoPoison(t *testing.T) {
	mem := MustMem(32)
	if err := mem.WriteBlock(3, pat(0xCC)); err != nil {
		t.Fatal(err)
	}
	flaky := &flakyDev{dev: mem}
	c, err := NewCached(flaky, 8)
	if err != nil {
		t.Fatal(err)
	}
	flaky.set(true, false)
	buf := make([]byte, BlockSize)
	if err := c.ReadBlock(3, buf); !errors.Is(err, ErrIO) {
		t.Fatalf("read err = %v, want ErrIO", err)
	}
	if cachedLen(c) != 0 {
		t.Fatalf("failed fill left %d poisoned entries", cachedLen(c))
	}
	flaky.set(false, false)
	if err := c.ReadBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pat(0xCC)) {
		t.Fatal("recovered read returned wrong data")
	}
}

// TestCachedEvictionWritebackFailure: when evicting a dirty victim fails
// with ErrIO, the block stays cached and dirty — no buffered write is ever
// lost — and a later Sync lands it once the device recovers.
func TestCachedEvictionWritebackFailure(t *testing.T) {
	mem := MustMem(32)
	flaky := &flakyDev{dev: mem}
	c, err := NewCached(flaky, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBlock(4, pat(0x44)); err != nil {
		t.Fatal(err)
	}
	flaky.set(false, true)
	// Inserting a second block forces an eviction of dirty block 4, which
	// fails; the error surfaces and block 4 must survive in the cache.
	if err := c.WriteBlock(5, pat(0x55)); !errors.Is(err, ErrIO) {
		t.Fatalf("eviction err = %v, want ErrIO", err)
	}
	buf := make([]byte, BlockSize)
	if err := c.ReadBlock(4, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pat(0x44)) {
		t.Fatal("dirty block lost after failed eviction writeback")
	}
	// Sync also fails while the device is down, and still loses nothing.
	if err := c.Sync(); !errors.Is(err, ErrIO) {
		t.Fatalf("sync err = %v, want ErrIO", err)
	}
	flaky.set(false, false)
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, blk := range []struct {
		n uint64
		v byte
	}{{4, 0x44}, {5, 0x55}} {
		if err := mem.ReadBlock(blk.n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, pat(blk.v)) {
			t.Fatalf("block %d not durable after recovery", blk.n)
		}
	}
}

// TestCachedVectorWrite: a batched write lands wholly in the cache under
// one lock and flushes correctly.
func TestCachedVectorWrite(t *testing.T) {
	mem := MustMem(32)
	c, err := NewCached(mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	ns := []uint64{11, 12, 13}
	imgs := [][]byte{pat(1), pat(2), pat(3)}
	if err := c.WriteBlocks(ns, imgs); err != nil {
		t.Fatal(err)
	}
	if w := mem.Stats().Writes; w != 0 {
		t.Fatalf("device writes = %d before Sync, want 0", w)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	for i, n := range ns {
		if err := mem.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, imgs[i]) {
			t.Fatalf("block %d wrong after flush", n)
		}
	}
}

// TestCachedBypass: blocks inside the bypass range go straight to the
// device in both directions and never occupy cache slots.
func TestCachedBypass(t *testing.T) {
	mem := MustMem(64)
	c, err := NewCached(mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	c.SetBypass(20, 10)
	if err := c.WriteBlock(25, pat(0xEE)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, BlockSize)
	if err := mem.ReadBlock(25, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat(0xEE)) {
		t.Fatal("bypassed write did not reach the device immediately")
	}
	if err := c.ReadBlock(25, got); err != nil {
		t.Fatal(err)
	}
	if cachedLen(c) != 0 {
		t.Fatalf("bypassed blocks occupy %d cache slots", cachedLen(c))
	}
	s := c.Stats()
	if s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Fatalf("bypassed I/O counted as hits=%d misses=%d", s.CacheHits, s.CacheMisses)
	}
	// Outside the range caching still works.
	if err := c.WriteBlock(40, pat(0x40)); err != nil {
		t.Fatal(err)
	}
	if cachedLen(c) != 1 {
		t.Fatalf("cacheable block not cached (len=%d)", cachedLen(c))
	}
}

// readEq fails the test unless block n reads back as want through dev.
func readEq(t *testing.T, dev Device, n uint64, want []byte) {
	t.Helper()
	got := make([]byte, BlockSize)
	if err := dev.ReadBlock(n, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("block %d byte0 = %#x, want %#x", n, got[0], want[0])
	}
}

// TestCachedOwnsWriteBuffer: the cache keeps the slice a write hands it,
// uncopied, and a rewrite swaps in the new slice instead of writing into
// the old one.
func TestCachedOwnsWriteBuffer(t *testing.T) {
	mem := MustMem(32)
	c, err := NewCached(mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, b := pat(0xA1), pat(0xB2)
	if err := c.WriteBlock(5, a); err != nil {
		t.Fatal(err)
	}
	if &c.entries[5].data[0] != &a[0] {
		t.Fatal("WriteBlock copied the image")
	}
	if err := c.WriteBlock(5, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, pat(0xA1)) {
		t.Fatal("rewrite wrote into the earlier buffer")
	}
	readEq(t, c, 5, pat(0xB2))
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	readEq(t, mem, 5, pat(0xB2))
}

// TestCachedSharedBufferSurvivesRewrite: one buffer handed down for two
// blocks (as the secure-free zero block is) stays intact when one of them
// is rewritten, and the other block keeps its image through the flush.
func TestCachedSharedBufferSurvivesRewrite(t *testing.T) {
	mem := MustMem(32)
	c, err := NewCached(mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	shared := pat(0x5E)
	if err := c.WriteBlocks([]uint64{1, 2}, [][]byte{shared, shared}); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBlock(1, pat(0x01)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shared, pat(0x5E)) {
		t.Fatal("rewriting block 1 changed the buffer block 2 still holds")
	}
	readEq(t, c, 2, pat(0x5E))
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	readEq(t, mem, 1, pat(0x01))
	readEq(t, mem, 2, pat(0x5E))
}

// TestCachedSyncFlushesDirtyList: Sync writes exactly the blocks dirty
// since the last Sync — once each, however often they were rewritten, and
// not again when an eviction already wrote them back — and a clean cache
// syncs with no writes.
func TestCachedSyncFlushesDirtyList(t *testing.T) {
	mem := MustMem(64)
	c, err := NewCached(mem, 4)
	if err != nil {
		t.Fatal(err)
	}
	for n := uint64(10); n < 14; n++ {
		if err := c.WriteBlock(n, pat(byte(n))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteBlock(12, pat(0x12)); err != nil {
		t.Fatal(err)
	}
	// Two misses evict the two least recent dirty blocks, 10 and 11.
	buf := make([]byte, BlockSize)
	for _, n := range []uint64{20, 21} {
		if err := c.ReadBlock(n, buf); err != nil {
			t.Fatal(err)
		}
	}
	if w := mem.Stats().Writes; w != 2 {
		t.Fatalf("eviction writebacks = %d device writes, want 2", w)
	}
	// Block 10 comes back dirty as a new entry; its evicted one is clean.
	if err := c.WriteBlock(10, pat(0x10)); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	// The flush wrote 10, 12 and 13 once each.
	if w := mem.Stats().Writes; w != 5 {
		t.Fatalf("device writes after Sync = %d, want 5", w)
	}
	if wb := c.Stats().Writebacks; wb != 5 {
		t.Fatalf("writebacks = %d, want 5", wb)
	}
	for n, v := range map[uint64]byte{10: 0x10, 11: 11, 12: 0x12, 13: 13} {
		readEq(t, mem, n, pat(v))
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if w := mem.Stats().Writes; w != 5 {
		t.Fatalf("a clean Sync wrote: %d device writes, want 5", w)
	}
}

// TestCachedConcurrentOwnership: writers hand the cache a fresh uniform
// buffer per write while readers, evictions and Syncs interleave. No
// handed buffer may change, no read may mix two images, and after the last
// Sync the device holds each block's cached image.
func TestCachedConcurrentOwnership(t *testing.T) {
	mem := MustMem(64)
	c, err := NewCached(mem, 4)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		rounds  = 200
		nblocks = 8
	)
	var wg sync.WaitGroup
	handed := make([][][]byte, writers)
	errs := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b := pat(byte(w*rounds + i))
				handed[w] = append(handed[w], b)
				n := uint64(i % nblocks)
				var err error
				if i%3 == 0 {
					err = c.WriteBlocks([]uint64{n, n + nblocks}, [][]byte{b, b})
				} else {
					err = c.WriteBlock(n, b)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]byte, BlockSize)
		for i := 0; i < writers*rounds; i++ {
			if err := c.ReadBlock(uint64(i%(2*nblocks)), buf); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(buf, pat(buf[0])) {
				errs <- fmt.Errorf("read of block %d mixes two images", i%(2*nblocks))
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := c.Sync(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := range handed {
		for i, b := range handed[w] {
			if !bytes.Equal(b, pat(byte(w*rounds+i))) {
				t.Fatalf("writer %d's buffer %d changed after it was handed down", w, i)
			}
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, BlockSize)
	for n := uint64(0); n < 2*nblocks; n++ {
		if err := c.ReadBlock(n, want); err != nil {
			t.Fatal(err)
		}
		readEq(t, mem, n, want)
	}
}

// cachedLen reports how many blocks c holds.
func cachedLen(c *Cached) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
