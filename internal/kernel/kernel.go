// Package kernel accounts the cross-kernel IO of the paper's purpose
// kernel model (§2): "the kernel is the aggregation of several sub-kernels
// where each sub-kernel achieves a specific purpose" — IO-driver kernels
// that own the devices, a general-purpose kernel for non-personal data and
// rgpdOS for personal data. IO devices are removed from the general
// purpose kernel "because they are traversed by PD", so every disk access
// crosses a kernel boundary.
//
// The reproduction models that boundary and nothing more. A RemoteDevice
// is the only way the filesystems reach a disk: it calls the driver's
// device directly, passes buffers by reference, and charges each block
// operation to a Bus as one message of its modelled size, so the IPC cost
// of the split-kernel design is measurable (the E2E ladder's kernel.bus_*
// rows). The sub-kernels are not separate address spaces, nothing
// partitions CPU or memory between them, and nothing isolates one from
// another; DESIGN.md states which §2 properties are enforced and which are
// only named.
//
// Idea 2's data-centric execution has no memory abstraction here: the DED
// runs a processing in-process on a view bounded by its purpose, and Go's
// memory safety rules out the use-after-free of Fig. 2, but nothing in one
// Go process can zeroize what a function saw (see package ded).
package kernel

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/blockdev"
)

// BusStats aggregates message-bus traffic.
type BusStats struct {
	Messages   uint64
	Bytes      uint64
	SimLatency time.Duration
}

// Bus is the cross-kernel transport's cost model. Each message is charged
// a simulated per-message cost plus a per-byte cost, modelling the IPC
// that a real semi-microkernel pays where a monolithic kernel would use a
// function call. It is safe for concurrent use.
type Bus struct {
	perMsgCost  time.Duration
	perByteCost time.Duration

	messages   atomic.Uint64
	bytes      atomic.Uint64
	simLatency atomic.Int64
}

// NewBus creates a bus. Costs of zero are valid (an idealized transport).
func NewBus(perMsgCost, perByteCost time.Duration) *Bus {
	return &Bus{perMsgCost: perMsgCost, perByteCost: perByteCost}
}

// charge accounts one message of n bytes.
func (b *Bus) charge(n int) {
	b.messages.Add(1)
	b.bytes.Add(uint64(n))
	b.simLatency.Add(int64(b.perMsgCost + time.Duration(n)*b.perByteCost))
}

// Stats returns a snapshot of the counters.
func (b *Bus) Stats() BusStats {
	return BusStats{
		Messages:   b.messages.Load(),
		Bytes:      b.bytes.Load(),
		SimLatency: time.Duration(b.simLatency.Load()),
	}
}

// writevEntrySize is the modelled size of one writev entry: a block number
// and the block image.
const writevEntrySize = 8 + blockdev.BlockSize

// RemoteDevice is a kernel's view of a device owned by an IO-driver
// kernel. Every block operation is charged to the bus as one message: a
// read or a write carries one block, a writev one entry per block, a sync
// nothing. It implements blockdev.Device, so the whole filesystem stack
// runs unchanged over the split-kernel topology.
type RemoteDevice struct {
	bus *Bus
	dev blockdev.Device
}

var (
	_ blockdev.Device       = (*RemoteDevice)(nil)
	_ blockdev.VectorWriter = (*RemoteDevice)(nil)
)

// NewRemoteDevice routes IO on dev through bus.
func NewRemoteDevice(bus *Bus, dev blockdev.Device) *RemoteDevice {
	return &RemoteDevice{bus: bus, dev: dev}
}

// ReadBlock implements blockdev.Device.
func (r *RemoteDevice) ReadBlock(n uint64, buf []byte) error {
	if len(buf) != blockdev.BlockSize {
		return blockdev.ErrBadSize
	}
	r.bus.charge(blockdev.BlockSize)
	return r.dev.ReadBlock(n, buf)
}

// WriteBlock implements blockdev.Device.
func (r *RemoteDevice) WriteBlock(n uint64, data []byte) error {
	if len(data) != blockdev.BlockSize {
		return blockdev.ErrBadSize
	}
	r.bus.charge(blockdev.BlockSize)
	return r.dev.WriteBlock(n, data)
}

// WriteBlocks implements blockdev.VectorWriter: the whole batch is one bus
// message, so a WAL group flush pays one cross-kernel round trip instead
// of one per journal block.
func (r *RemoteDevice) WriteBlocks(ns []uint64, data [][]byte) error {
	if len(ns) != len(data) {
		return fmt.Errorf("kernel: WriteBlocks: %d block numbers, %d buffers", len(ns), len(data))
	}
	if len(ns) == 0 {
		return nil
	}
	for _, d := range data {
		if len(d) != blockdev.BlockSize {
			return blockdev.ErrBadSize
		}
	}
	r.bus.charge(len(ns) * writevEntrySize)
	return blockdev.WriteBlocks(r.dev, ns, data)
}

// NumBlocks implements blockdev.Device.
func (r *RemoteDevice) NumBlocks() uint64 { return r.dev.NumBlocks() }

// Sync implements blockdev.Device.
func (r *RemoteDevice) Sync() error {
	r.bus.charge(0)
	return r.dev.Sync()
}

// Stats implements blockdev.Device with the driver device's counters.
func (r *RemoteDevice) Stats() blockdev.Stats { return r.dev.Stats() }
