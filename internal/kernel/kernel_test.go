package kernel

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/inode"
	"repro/internal/simclock"
)

func newRemote(blocks uint64) (*Bus, *blockdev.Mem, *RemoteDevice) {
	bus := NewBus(time.Microsecond, time.Nanosecond)
	dev := blockdev.MustMem(blocks)
	return bus, dev, NewRemoteDevice(bus, dev)
}

func TestRemoteDeviceRoundTrip(t *testing.T) {
	_, dev, rd := newRemote(32)
	if rd.NumBlocks() != 32 {
		t.Fatalf("NumBlocks = %d", rd.NumBlocks())
	}
	in := make([]byte, blockdev.BlockSize)
	copy(in, "through the io-driver kernel")
	if err := rd.WriteBlock(7, in); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	// The remote view reports the driver device's counters.
	if got, want := rd.Stats(), dev.Stats(); got != want || got.Writes != 1 {
		t.Fatalf("remote Stats = %+v, driver Stats = %+v", got, want)
	}
	out := make([]byte, blockdev.BlockSize)
	if err := rd.ReadBlock(7, out); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	if !bytes.Equal(in, out) {
		t.Fatal("remote round trip mismatch")
	}
	if err := rd.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// The real device saw the write (proof IO happened in the driver).
	direct := make([]byte, blockdev.BlockSize)
	if err := dev.ReadBlock(7, direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, direct) {
		t.Fatal("driver device does not hold the data")
	}
}

// TestBusAccounting pins the modelled message sizes: a read and a write
// carry one block, a writev one block number and block per entry, a sync
// nothing; each message costs 1us plus 1ns per byte.
func TestBusAccounting(t *testing.T) {
	bus, _, rd := newRemote(8)
	buf := make([]byte, blockdev.BlockSize)
	if err := rd.ReadBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := rd.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := rd.WriteBlocks([]uint64{1, 2, 3}, [][]byte{buf, buf, buf}); err != nil {
		t.Fatal(err)
	}
	if err := rd.Sync(); err != nil {
		t.Fatal(err)
	}
	wantBytes := uint64(2*blockdev.BlockSize + 3*(8+blockdev.BlockSize))
	want := BusStats{
		Messages:   4,
		Bytes:      wantBytes,
		SimLatency: 4*time.Microsecond + time.Duration(wantBytes)*time.Nanosecond,
	}
	if got := bus.Stats(); got != want {
		t.Fatalf("bus stats = %+v, want %+v", got, want)
	}
}

// TestRemoteDeviceDoesNotAlias checks that the device keeps no reference
// to a caller's buffer once a write returns.
func TestRemoteDeviceDoesNotAlias(t *testing.T) {
	_, dev, rd := newRemote(8)
	one := bytes.Repeat([]byte{1}, blockdev.BlockSize)
	two := bytes.Repeat([]byte{2}, blockdev.BlockSize)
	if err := rd.WriteBlock(0, one); err != nil {
		t.Fatal(err)
	}
	if err := rd.WriteBlocks([]uint64{1, 2}, [][]byte{two, two}); err != nil {
		t.Fatal(err)
	}
	for i := range one {
		one[i], two[i] = 0xff, 0xff
	}
	got := make([]byte, blockdev.BlockSize)
	for n, want := range []byte{1, 2, 2} {
		if err := dev.ReadBlock(uint64(n), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{want}, blockdev.BlockSize)) {
			t.Fatalf("block %d changed with the caller's buffer", n)
		}
	}
}

// TestDriverRejectsBadOp checks that a malformed block operation fails
// before it crosses the bus, and that the driver device's own errors come
// back to the caller.
func TestDriverRejectsBadOp(t *testing.T) {
	bus, _, rd := newRemote(8)
	short := make([]byte, blockdev.BlockSize-1)
	buf := make([]byte, blockdev.BlockSize)
	if err := rd.ReadBlock(0, short); !errors.Is(err, blockdev.ErrBadSize) {
		t.Fatalf("short ReadBlock = %v, want ErrBadSize", err)
	}
	if err := rd.WriteBlock(0, short); !errors.Is(err, blockdev.ErrBadSize) {
		t.Fatalf("short WriteBlock = %v, want ErrBadSize", err)
	}
	if err := rd.WriteBlocks([]uint64{0, 1}, [][]byte{buf, short}); !errors.Is(err, blockdev.ErrBadSize) {
		t.Fatalf("writev with a short entry = %v, want ErrBadSize", err)
	}
	if err := rd.WriteBlocks([]uint64{0}, nil); err == nil {
		t.Fatal("writev with mismatched lengths succeeded")
	}
	if got := bus.Stats(); got != (BusStats{}) {
		t.Fatalf("malformed operations were charged: %+v", got)
	}
	if err := rd.WriteBlock(8, buf); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("WriteBlock past the end = %v, want ErrOutOfRange", err)
	}
}

func TestFilesystemOverRemoteDevice(t *testing.T) {
	// The full rgpdOS storage stack must run over the split-kernel
	// topology: inode FS on a RemoteDevice on the bus.
	bus, _, rd := newRemote(1024)
	fs, err := inode.Format(rd, inode.Options{NInodes: 128, JournalBlocks: 32, Clock: simclock.NewSim(simclock.Epoch)})
	if err != nil {
		t.Fatalf("Format over remote device: %v", err)
	}
	ino, err := fs.AllocInode(inode.ModeFile, "pd")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(ino, 0, []byte("cross-kernel storage")); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 20)
	if _, err := fs.ReadAt(ino, 0, out); err != nil {
		t.Fatal(err)
	}
	if string(out) != "cross-kernel storage" {
		t.Fatalf("read = %q", out)
	}
	if bus.Stats().Messages == 0 {
		t.Fatal("no bus traffic: FS bypassed the driver kernel")
	}
}

func TestConcurrentBusCalls(t *testing.T) {
	const workers, rounds = 8, 50
	bus, _, rd := newRemote(64)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, blockdev.BlockSize)
			for i := 0; i < rounds; i++ {
				buf[0] = byte(w)
				if err := rd.WriteBlock(uint64(w), buf); err != nil {
					errs <- err
					return
				}
				if err := rd.ReadBlock(uint64(w), buf); err != nil {
					errs <- err
					return
				}
				if buf[0] != byte(w) {
					errs <- errors.New("cross-worker corruption")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := bus.Stats()
	if want := uint64(workers * rounds * 2); s.Messages != want || s.Bytes != want*blockdev.BlockSize {
		t.Fatalf("bus stats = %+v, want %d messages of one block", s, want)
	}
}
