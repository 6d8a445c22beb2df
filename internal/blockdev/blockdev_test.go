package blockdev

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestNewMemRejectsZeroBlocks(t *testing.T) {
	if _, err := NewMem(0, DefaultLatency()); err == nil {
		t.Fatal("NewMem(0) succeeded, want error")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	dev := MustMem(8)
	in := make([]byte, BlockSize)
	for i := range in {
		in[i] = byte(i % 251)
	}
	if err := dev.WriteBlock(3, in); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	out := make([]byte, BlockSize)
	if err := dev.ReadBlock(3, out); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	if !bytes.Equal(in, out) {
		t.Fatal("read data differs from written data")
	}
}

func TestFreshBlocksAreZero(t *testing.T) {
	dev := MustMem(2)
	buf := make([]byte, BlockSize)
	if err := dev.ReadBlock(1, buf); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("fresh block has non-zero byte at %d", i)
		}
	}
}

func TestOutOfRange(t *testing.T) {
	dev := MustMem(4)
	buf := make([]byte, BlockSize)
	if err := dev.ReadBlock(4, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("ReadBlock(4) err = %v, want ErrOutOfRange", err)
	}
	if err := dev.WriteBlock(99, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("WriteBlock(99) err = %v, want ErrOutOfRange", err)
	}
}

func TestBadBufferSize(t *testing.T) {
	dev := MustMem(4)
	if err := dev.ReadBlock(0, make([]byte, 10)); !errors.Is(err, ErrBadSize) {
		t.Fatalf("short read buffer err = %v, want ErrBadSize", err)
	}
	if err := dev.WriteBlock(0, make([]byte, BlockSize+1)); !errors.Is(err, ErrBadSize) {
		t.Fatalf("long write buffer err = %v, want ErrBadSize", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	dev := MustMem(4)
	buf := make([]byte, BlockSize)
	for i := 0; i < 3; i++ {
		if err := dev.WriteBlock(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := dev.ReadBlock(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	s := dev.Stats()
	if s.Writes != 3 || s.Reads != 2 || s.Syncs != 1 {
		t.Fatalf("stats = %+v, want 3 writes / 2 reads / 1 sync", s)
	}
	lat := DefaultLatency()
	want := 3*lat.WriteCost + 2*lat.ReadCost + lat.SyncCost
	if s.SimLatency != want {
		t.Fatalf("SimLatency = %v, want %v", s.SimLatency, want)
	}
	if s.BytesWritten != 3*BlockSize || s.BytesRead != 2*BlockSize {
		t.Fatalf("byte counters = %+v", s)
	}
}

func TestFailedOpsDoNotCount(t *testing.T) {
	dev := MustMem(1)
	buf := make([]byte, BlockSize)
	_ = dev.ReadBlock(5, buf) // out of range
	if s := dev.Stats(); s.Reads != 0 {
		t.Fatalf("failed read was counted: %+v", s)
	}
}

func TestFindResidue(t *testing.T) {
	dev := MustMem(8)
	secret := []byte("SSN-123-45-6789")
	block := make([]byte, BlockSize)
	copy(block[100:], secret)
	if err := dev.WriteBlock(2, block); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteBlock(5, block); err != nil {
		t.Fatal(err)
	}
	hits := FindResidue(dev, secret)
	if len(hits) != 2 || hits[0] != 2 || hits[1] != 5 {
		t.Fatalf("FindResidue = %v, want [2 5]", hits)
	}
	if got := FindResidue(dev, []byte("absent")); got != nil {
		t.Fatalf("FindResidue(absent) = %v, want nil", got)
	}
	if got := FindResidue(dev, nil); got != nil {
		t.Fatalf("FindResidue(nil pattern) = %v, want nil", got)
	}
}

func TestFindResidueAny(t *testing.T) {
	dev := MustMem(8)
	block := make([]byte, BlockSize)
	copy(block[10:], "alpha-secret")
	copy(block[200:], "beta-secret")
	if err := dev.WriteBlock(1, block); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteBlock(4, block); err != nil {
		t.Fatal(err)
	}
	// alpha hits blocks 1 and 4, beta hits blocks 1 and 4, gamma none:
	// 4 (pattern, block) pairs total, counted in one traversal.
	got := FindResidueAny(dev, [][]byte{
		[]byte("alpha-secret"), []byte("beta-secret"), []byte("gamma-secret"),
	})
	if got != 4 {
		t.Fatalf("FindResidueAny = %d, want 4", got)
	}
	if got := FindResidueAny(dev, nil); got != 0 {
		t.Fatalf("FindResidueAny(nil) = %d, want 0", got)
	}
	if got := FindResidueAny(dev, [][]byte{nil, {}}); got != 0 {
		t.Fatalf("FindResidueAny(empty patterns) = %d, want 0", got)
	}
	// The batch count must agree with per-pattern FindResidue block counts.
	want := len(FindResidue(dev, []byte("alpha-secret"))) +
		len(FindResidue(dev, []byte("beta-secret")))
	if got := FindResidueAny(dev, [][]byte{[]byte("alpha-secret"), []byte("beta-secret")}); got != want {
		t.Fatalf("FindResidueAny = %d, FindResidue sum = %d", got, want)
	}
}

func TestFindResidueSpanningBlocks(t *testing.T) {
	dev := MustMem(4)
	// A pattern written across the block 0/1 boundary must be found and
	// attributed to the block where it begins.
	a := make([]byte, BlockSize)
	b := make([]byte, BlockSize)
	copy(a[BlockSize-3:], "SEC")
	copy(b, "RET")
	if err := dev.WriteBlock(0, a); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteBlock(1, b); err != nil {
		t.Fatal(err)
	}
	hits := FindResidue(dev, []byte("SECRET"))
	if len(hits) != 1 || hits[0] != 0 {
		t.Fatalf("FindResidue across boundary = %v, want [0]", hits)
	}
}

func TestConcurrentAccess(t *testing.T) {
	dev := MustMem(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, BlockSize)
			for i := 0; i < 100; i++ {
				n := uint64((w*100 + i) % 64)
				buf[0] = byte(w)
				if err := dev.WriteBlock(n, buf); err != nil {
					t.Errorf("WriteBlock: %v", err)
					return
				}
				if err := dev.ReadBlock(n, buf); err != nil {
					t.Errorf("ReadBlock: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := dev.Stats()
	if s.Reads != 800 || s.Writes != 800 {
		t.Fatalf("concurrent stats = %+v, want 800/800", s)
	}
}

func TestFaultyReadErrors(t *testing.T) {
	dev := MustMem(4)
	f := NewFaulty(dev, xrand.New(1), 1.0, 0)
	buf := make([]byte, BlockSize)
	if err := f.ReadBlock(0, buf); !errors.Is(err, ErrIO) {
		t.Fatalf("ReadBlock with p=1 err = %v, want ErrIO", err)
	}
	re, tw := f.InjectedFaults()
	if re != 1 || tw != 0 {
		t.Fatalf("InjectedFaults = %d,%d want 1,0", re, tw)
	}
}

func TestFaultyTornWrite(t *testing.T) {
	dev := MustMem(4)
	f := NewFaulty(dev, xrand.New(1), 0, 1.0)
	in := make([]byte, BlockSize)
	for i := range in {
		in[i] = 0xAB
	}
	if err := f.WriteBlock(0, in); err != nil {
		t.Fatalf("torn WriteBlock: %v", err)
	}
	out := make([]byte, BlockSize)
	if err := dev.ReadBlock(0, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < BlockSize/2; i++ {
		if out[i] != 0xAB {
			t.Fatalf("first half byte %d = %x, want AB", i, out[i])
		}
	}
	for i := BlockSize / 2; i < BlockSize; i++ {
		if out[i] != 0 {
			t.Fatalf("second half byte %d = %x, want 00 (old contents)", i, out[i])
		}
	}
}

func TestFaultyZeroProbIsTransparent(t *testing.T) {
	dev := MustMem(4)
	f := NewFaulty(dev, xrand.New(1), 0, 0)
	in := make([]byte, BlockSize)
	in[17] = 42
	if err := f.WriteBlock(1, in); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, BlockSize)
	if err := f.ReadBlock(1, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Fatal("fault-free wrapper altered data")
	}
}

func TestRoundTripProperty(t *testing.T) {
	dev := MustMem(16)
	cfg := &quick.Config{MaxCount: 50}
	err := quick.Check(func(blockSeed uint8, payload []byte) bool {
		n := uint64(blockSeed) % 16
		in := make([]byte, BlockSize)
		copy(in, payload)
		if err := dev.WriteBlock(n, in); err != nil {
			return false
		}
		out := make([]byte, BlockSize)
		if err := dev.ReadBlock(n, out); err != nil {
			return false
		}
		return bytes.Equal(in, out)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// TestPartitionWriteBlocks checks the partition's vectored write: blocks
// land at start+n on the parent, the caller's block numbers are left as
// they were, an out-of-range entry writes nothing, and a steady-state
// write allocates nothing (the translated numbers come from a pool).
func TestPartitionWriteBlocks(t *testing.T) {
	dev := MustMem(64)
	part, err := NewPartition(dev, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	ns := []uint64{0, 3, 15}
	data := make([][]byte, len(ns))
	for i := range data {
		data[i] = bytes.Repeat([]byte{byte(i + 1)}, BlockSize)
	}
	if err := part.WriteBlocks(ns, data); err != nil {
		t.Fatalf("WriteBlocks: %v", err)
	}
	if ns[0] != 0 || ns[1] != 3 || ns[2] != 15 {
		t.Fatalf("caller's block numbers changed: %v", ns)
	}
	out := make([]byte, BlockSize)
	for i, n := range ns {
		if err := dev.ReadBlock(16+n, out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, data[i]) {
			t.Fatalf("parent block %d does not hold partition block %d", 16+n, n)
		}
	}
	before := dev.Stats().Writes
	if err := part.WriteBlocks([]uint64{1, 16}, data[:2]); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range WriteBlocks err = %v, want ErrOutOfRange", err)
	}
	if dev.Stats().Writes != before {
		t.Fatal("a rejected batch wrote blocks")
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := part.WriteBlocks(ns, data); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Partition.WriteBlocks allocates %.1f times per call, want 0", n)
	}
}

// TestPartitionConcurrentWriteBlocks runs vectored writes on two
// partitions of one device at once; under -race it checks that the pooled
// translation slices are never shared between calls.
func TestPartitionConcurrentWriteBlocks(t *testing.T) {
	dev := MustMem(64)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		part, err := NewPartition(dev, uint64(p)*16, 16)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p int, part *Partition) {
			defer wg.Done()
			img := bytes.Repeat([]byte{byte(p + 1)}, BlockSize)
			ns := make([]uint64, 16)
			data := make([][]byte, 16)
			for i := range ns {
				ns[i], data[i] = uint64(i), img
			}
			for round := 0; round < 50; round++ {
				if err := part.WriteBlocks(ns[:1+round%16], data[:1+round%16]); err != nil {
					t.Error(err)
					return
				}
			}
		}(p, part)
	}
	wg.Wait()
	out := make([]byte, BlockSize)
	for b := uint64(0); b < 64; b++ {
		if err := dev.ReadBlock(b, out); err != nil {
			t.Fatal(err)
		}
		if want := byte(b/16 + 1); out[0] != want || out[BlockSize-1] != want {
			t.Fatalf("block %d holds partition %d's data, want partition %d's", b, out[0]-1, want-1)
		}
	}
}
