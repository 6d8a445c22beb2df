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

func newBusAndDriver(t *testing.T, blocks uint64) (*Bus, *blockdev.Mem) {
	t.Helper()
	bus := NewBus(time.Microsecond, time.Nanosecond)
	dev := blockdev.MustMem(blocks)
	if _, err := NewBlockDriverKernel(bus, "io.disk0", dev); err != nil {
		t.Fatalf("NewBlockDriverKernel: %v", err)
	}
	return bus, dev
}

func TestRemoteDeviceRoundTrip(t *testing.T) {
	bus, dev := newBusAndDriver(t, 32)
	rd, err := NewRemoteDevice(bus, "rgpdos", "io.disk0")
	if err != nil {
		t.Fatalf("NewRemoteDevice: %v", err)
	}
	if rd.NumBlocks() != 32 {
		t.Fatalf("NumBlocks = %d", rd.NumBlocks())
	}
	in := make([]byte, blockdev.BlockSize)
	copy(in, "through the io-driver kernel")
	if err := rd.WriteBlock(7, in); err != nil {
		t.Fatalf("WriteBlock: %v", err)
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

func TestBusAccounting(t *testing.T) {
	bus, _ := newBusAndDriver(t, 8)
	rd, err := NewRemoteDevice(bus, "rgpdos", "io.disk0")
	if err != nil {
		t.Fatal(err)
	}
	base := bus.Stats().Messages // NewRemoteDevice probes once
	buf := make([]byte, blockdev.BlockSize)
	if err := rd.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := rd.ReadBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	s := bus.Stats()
	if s.Messages != base+2 {
		t.Fatalf("Messages = %d, want %d", s.Messages, base+2)
	}
	if s.PerKernelOut["rgpdos"] != base+2 || s.PerKernelIn["io.disk0"] != base+2 {
		t.Fatalf("per-kernel stats = %+v", s)
	}
	if s.SimLatency <= 0 || s.Bytes < 2*blockdev.BlockSize {
		t.Fatalf("latency/bytes = %v/%d", s.SimLatency, s.Bytes)
	}
}

func TestBusUnknownEndpoint(t *testing.T) {
	bus := NewBus(0, 0)
	resp := bus.Call(Request{From: "a", To: "ghost", Op: "x"})
	if !errors.Is(resp.Err, ErrNoEndpoint) {
		t.Fatalf("err = %v, want ErrNoEndpoint", resp.Err)
	}
}

func TestBusDuplicateRegistration(t *testing.T) {
	bus := NewBus(0, 0)
	h := func(Request) Response { return Response{} }
	if err := bus.Register("k", h); err != nil {
		t.Fatal(err)
	}
	if err := bus.Register("k", h); !errors.Is(err, ErrKernelExists) {
		t.Fatalf("dup Register = %v, want ErrKernelExists", err)
	}
}

func TestDriverRejectsBadOp(t *testing.T) {
	bus, _ := newBusAndDriver(t, 8)
	resp := bus.Call(Request{From: "x", To: "io.disk0", Op: "block.format"})
	if !errors.Is(resp.Err, ErrBadOp) {
		t.Fatalf("bad op err = %v, want ErrBadOp", resp.Err)
	}
}

func TestFilesystemOverRemoteDevice(t *testing.T) {
	// The full rgpdOS storage stack must run over the split-kernel
	// topology: inode FS on a RemoteDevice on the bus.
	bus, _ := newBusAndDriver(t, 1024)
	rd, err := NewRemoteDevice(bus, "rgpdos", "io.disk0")
	if err != nil {
		t.Fatal(err)
	}
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

func TestPartitionerAssignAndOverCommit(t *testing.T) {
	p := NewPartitioner(8, 1000)
	if err := p.Assign("rgpdos", 4, 600); err != nil {
		t.Fatal(err)
	}
	if err := p.Assign("gp", 3, 300); err != nil {
		t.Fatal(err)
	}
	if err := p.Assign("io.disk0", 2, 200); !errors.Is(err, ErrOverCommit) {
		t.Fatalf("over-commit err = %v", err)
	}
	if err := p.Assign("io.disk0", 1, 100); err != nil {
		t.Fatal(err)
	}
	cpus, pages := p.Free()
	if cpus != 0 || pages != 0 {
		t.Fatalf("Free = %v, %v", cpus, pages)
	}
	shares := p.Shares()
	if len(shares) != 3 || shares[0].Kernel != "gp" {
		t.Fatalf("Shares = %+v", shares)
	}
}

func TestPartitionerReassignReplaces(t *testing.T) {
	p := NewPartitioner(4, 100)
	if err := p.Assign("k", 4, 100); err != nil {
		t.Fatal(err)
	}
	// Replacing a share must not double-count the old one.
	if err := p.Assign("k", 2, 50); err != nil {
		t.Fatalf("replace share: %v", err)
	}
	cpus, pages := p.Free()
	if cpus != 2 || pages != 50 {
		t.Fatalf("Free = %v, %v", cpus, pages)
	}
}

func TestPartitionerRebalance(t *testing.T) {
	p := NewPartitioner(8, 1000)
	if err := p.Assign("rgpdos", 4, 500); err != nil {
		t.Fatal(err)
	}
	if err := p.Assign("gp", 4, 500); err != nil {
		t.Fatal(err)
	}
	// The dynamic partitioning of §2: shift capacity toward PD processing.
	if err := p.Rebalance("gp", "rgpdos", 2, 100); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	shares := p.Shares()
	for _, s := range shares {
		switch s.Kernel {
		case "rgpdos":
			if s.CPUs != 6 || s.MemPages != 600 {
				t.Fatalf("rgpdos share = %+v", s)
			}
		case "gp":
			if s.CPUs != 2 || s.MemPages != 400 {
				t.Fatalf("gp share = %+v", s)
			}
		}
	}
	if err := p.Rebalance("gp", "rgpdos", 10, 0); !errors.Is(err, ErrOverCommit) {
		t.Fatalf("over-rebalance err = %v", err)
	}
	if err := p.Rebalance("ghost", "rgpdos", 1, 0); err == nil {
		t.Fatal("rebalance from unknown kernel succeeded")
	}
	if err := p.Rebalance("gp", "ghost", 1, 0); err == nil {
		t.Fatal("rebalance to unknown kernel succeeded")
	}
}

func TestMachineInventory(t *testing.T) {
	m := NewMachine(DefaultMachineOptions())
	for _, k := range []struct {
		name  string
		class Class
	}{
		{"io.disk0", ClassIODriver},
		{"gp", ClassGeneralPurpose},
		{"rgpdos", ClassGDPR},
	} {
		if err := m.AddKernel(k.name, k.class); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AddKernel("gp", ClassGeneralPurpose); !errors.Is(err, ErrKernelExists) {
		t.Fatalf("dup AddKernel = %v", err)
	}
	ks := m.Kernels()
	if len(ks) != 3 || ks[0].Name != "gp" || ks[1].Class != ClassIODriver {
		t.Fatalf("Kernels = %+v", ks)
	}
	if ClassGDPR.String() != "rgpdos" || ClassIODriver.String() != "io-driver" {
		t.Fatal("class names wrong")
	}
}

func TestConcurrentBusCalls(t *testing.T) {
	bus, _ := newBusAndDriver(t, 64)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rd, err := NewRemoteDevice(bus, "k", "io.disk0")
			if err != nil {
				errs <- err
				return
			}
			buf := make([]byte, blockdev.BlockSize)
			for i := 0; i < 50; i++ {
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
}
