// Package kernel implements the paper's purpose kernel model (§2): "the
// kernel is the aggregation of several sub-kernels where each sub-kernel
// achieves a specific purpose", organized into three classes —
//
//   - IO driver kernels: every IO device is managed by a dedicated
//     lightweight kernel (mainly the device driver);
//   - a general purpose kernel hosting non-personal data, with no IO
//     drivers of its own;
//   - rgpdOS, the GDPR-aware kernel hosting personal data.
//
// The sub-kernels cooperate over a message bus (the reproduction's stand-in
// for cross-kernel calls) and dynamically partition CPU and memory through
// the Partitioner. IO devices are deliberately removed from the general
// purpose kernel "because they are traversed by PD": disk access happens
// only inside IO-driver kernels, and other kernels reach devices through
// RemoteDevice, which turns every block operation into a bus message — so
// the hop count and simulated cost of the split-kernel design are
// measurable (the E2E ladder's kernel.bus_* rows).
//
// Idea 2's data-centric execution has no memory abstraction here: the DED
// runs a processing in-process on a view bounded by its purpose, and Go's
// memory safety rules out the use-after-free of Fig. 2, but nothing in one
// Go process can zeroize what a function saw (see package ded).
package kernel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/blockdev"
)

// Class classifies a sub-kernel.
type Class int

// Sub-kernel classes.
const (
	ClassIODriver Class = iota + 1
	ClassGeneralPurpose
	ClassGDPR
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassIODriver:
		return "io-driver"
	case ClassGeneralPurpose:
		return "general-purpose"
	case ClassGDPR:
		return "rgpdos"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Sentinel errors.
var (
	// ErrNoEndpoint reports a bus call to an unregistered kernel.
	ErrNoEndpoint = errors.New("kernel: no such endpoint")
	// ErrBadOp reports an unsupported operation at an endpoint.
	ErrBadOp = errors.New("kernel: unsupported operation")
	// ErrKernelExists reports a duplicate kernel name.
	ErrKernelExists = errors.New("kernel: kernel already registered")
	// ErrOverCommit reports a resource assignment exceeding the machine.
	ErrOverCommit = errors.New("kernel: resource over-commit")
)

// Request is one cross-kernel message.
type Request struct {
	From    string
	To      string
	Op      string
	Block   uint64 // block number for IO ops
	Payload []byte
}

// Response carries the reply.
type Response struct {
	Payload []byte
	Err     error
}

// Handler processes requests addressed to one kernel.
type Handler func(Request) Response

// BusStats aggregates message-bus traffic.
type BusStats struct {
	Messages     uint64
	Bytes        uint64
	SimLatency   time.Duration
	PerKernelIn  map[string]uint64
	PerKernelOut map[string]uint64
}

// Bus is the cross-kernel message transport. Calls are synchronous; each
// message is charged a simulated per-message cost plus a per-byte cost,
// modeling the IPC that a real semi-microkernel pays where a monolithic
// kernel would use a function call.
type Bus struct {
	perMsgCost  time.Duration
	perByteCost time.Duration

	mu        sync.Mutex
	endpoints map[string]Handler
	stats     BusStats
}

// NewBus creates a bus. Costs of zero are valid (an idealized transport).
func NewBus(perMsgCost, perByteCost time.Duration) *Bus {
	return &Bus{
		perMsgCost:  perMsgCost,
		perByteCost: perByteCost,
		endpoints:   make(map[string]Handler),
		stats: BusStats{
			PerKernelIn:  make(map[string]uint64),
			PerKernelOut: make(map[string]uint64),
		},
	}
}

// Register attaches a handler for kernel name.
func (b *Bus) Register(name string, h Handler) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.endpoints[name]; dup {
		return fmt.Errorf("%w: %q", ErrKernelExists, name)
	}
	b.endpoints[name] = h
	return nil
}

// Call dispatches req to its destination and returns the response. Traffic
// accounting covers both directions.
func (b *Bus) Call(req Request) Response {
	b.mu.Lock()
	h, ok := b.endpoints[req.To]
	if ok {
		b.stats.Messages++
		b.stats.Bytes += uint64(len(req.Payload))
		b.stats.SimLatency += b.perMsgCost + time.Duration(len(req.Payload))*b.perByteCost
		b.stats.PerKernelOut[req.From]++
		b.stats.PerKernelIn[req.To]++
	}
	b.mu.Unlock()
	if !ok {
		return Response{Err: fmt.Errorf("%w: %q", ErrNoEndpoint, req.To)}
	}
	resp := h(req)
	b.mu.Lock()
	b.stats.Bytes += uint64(len(resp.Payload))
	b.stats.SimLatency += time.Duration(len(resp.Payload)) * b.perByteCost
	b.mu.Unlock()
	return resp
}

// Stats returns a snapshot (maps are copied).
func (b *Bus) Stats() BusStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.stats
	out.PerKernelIn = make(map[string]uint64, len(b.stats.PerKernelIn))
	for k, v := range b.stats.PerKernelIn {
		out.PerKernelIn[k] = v
	}
	out.PerKernelOut = make(map[string]uint64, len(b.stats.PerKernelOut))
	for k, v := range b.stats.PerKernelOut {
		out.PerKernelOut[k] = v
	}
	return out
}

// --- IO driver kernels ---

// Bus operation names for block IO.
const (
	OpBlockRead  = "block.read"
	OpBlockWrite = "block.write"
	// OpBlockWritev carries a whole batch of block writes in one message —
	// the bus-level half of the WAL group commit: a commit group that would
	// otherwise pay one IPC round trip per journal block crosses the kernel
	// boundary once. Payload: repeated [u64 block number][BlockSize bytes].
	OpBlockWritev = "block.writev"
	OpBlockSync   = "block.sync"
	OpBlockCount  = "block.count"
)

// writevEntrySize is the wire size of one OpBlockWritev entry.
const writevEntrySize = 8 + blockdev.BlockSize

// BlockDriverKernel is an IO-driver sub-kernel owning one block device. It
// is the only code that touches the device.
type BlockDriverKernel struct {
	name string
	dev  blockdev.Device
}

// NewBlockDriverKernel wraps dev in a driver kernel named name and registers
// it on the bus.
func NewBlockDriverKernel(bus *Bus, name string, dev blockdev.Device) (*BlockDriverKernel, error) {
	k := &BlockDriverKernel{name: name, dev: dev}
	if err := bus.Register(name, k.handle); err != nil {
		return nil, err
	}
	return k, nil
}

// Name returns the kernel name.
func (k *BlockDriverKernel) Name() string { return k.name }

// Class returns ClassIODriver.
func (k *BlockDriverKernel) Class() Class { return ClassIODriver }

func (k *BlockDriverKernel) handle(req Request) Response {
	switch req.Op {
	case OpBlockRead:
		buf := make([]byte, blockdev.BlockSize)
		if err := k.dev.ReadBlock(req.Block, buf); err != nil {
			return Response{Err: err}
		}
		return Response{Payload: buf}
	case OpBlockWrite:
		if err := k.dev.WriteBlock(req.Block, req.Payload); err != nil {
			return Response{Err: err}
		}
		return Response{}
	case OpBlockWritev:
		if len(req.Payload)%writevEntrySize != 0 {
			return Response{Err: fmt.Errorf("%w: writev payload %d not a multiple of %d",
				ErrBadOp, len(req.Payload), writevEntrySize)}
		}
		count := len(req.Payload) / writevEntrySize
		ns := make([]uint64, count)
		data := make([][]byte, count)
		for i := 0; i < count; i++ {
			ent := req.Payload[i*writevEntrySize:]
			ns[i] = binary.LittleEndian.Uint64(ent)
			data[i] = ent[8 : 8+blockdev.BlockSize]
		}
		return Response{Err: blockdev.WriteBlocks(k.dev, ns, data)}
	case OpBlockSync:
		return Response{Err: k.dev.Sync()}
	case OpBlockCount:
		n := k.dev.NumBlocks()
		buf := make([]byte, 8)
		for i := 0; i < 8; i++ {
			buf[i] = byte(n >> (8 * i))
		}
		return Response{Payload: buf}
	default:
		return Response{Err: fmt.Errorf("%w: %q", ErrBadOp, req.Op)}
	}
}

// RemoteDevice lets a kernel without IO drivers use a device owned by a
// driver kernel: every block operation becomes a bus round trip. It
// implements blockdev.Device, so the whole filesystem stack runs unchanged
// over the split-kernel topology.
type RemoteDevice struct {
	bus     *Bus
	from    string
	driver  string
	nblocks uint64
}

var (
	_ blockdev.Device       = (*RemoteDevice)(nil)
	_ blockdev.VectorWriter = (*RemoteDevice)(nil)
)

// NewRemoteDevice connects kernel from to the device owned by driver.
func NewRemoteDevice(bus *Bus, from, driver string) (*RemoteDevice, error) {
	resp := bus.Call(Request{From: from, To: driver, Op: OpBlockCount})
	if resp.Err != nil {
		return nil, fmt.Errorf("kernel: probe driver %q: %w", driver, resp.Err)
	}
	var n uint64
	for i := 0; i < 8; i++ {
		n |= uint64(resp.Payload[i]) << (8 * i)
	}
	return &RemoteDevice{bus: bus, from: from, driver: driver, nblocks: n}, nil
}

// ReadBlock implements blockdev.Device over the bus.
func (r *RemoteDevice) ReadBlock(n uint64, buf []byte) error {
	if len(buf) != blockdev.BlockSize {
		return blockdev.ErrBadSize
	}
	resp := r.bus.Call(Request{From: r.from, To: r.driver, Op: OpBlockRead, Block: n})
	if resp.Err != nil {
		return resp.Err
	}
	copy(buf, resp.Payload)
	return nil
}

// WriteBlock implements blockdev.Device over the bus.
func (r *RemoteDevice) WriteBlock(n uint64, data []byte) error {
	if len(data) != blockdev.BlockSize {
		return blockdev.ErrBadSize
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	resp := r.bus.Call(Request{From: r.from, To: r.driver, Op: OpBlockWrite, Block: n, Payload: cp})
	return resp.Err
}

// WriteBlocks implements blockdev.VectorWriter: the whole batch is packed
// into a single bus message, so a WAL group flush pays one cross-kernel
// round trip instead of one per journal block.
func (r *RemoteDevice) WriteBlocks(ns []uint64, data [][]byte) error {
	if len(ns) != len(data) {
		return fmt.Errorf("kernel: WriteBlocks: %d block numbers, %d buffers", len(ns), len(data))
	}
	if len(ns) == 0 {
		return nil
	}
	payload := make([]byte, len(ns)*writevEntrySize)
	for i, n := range ns {
		if len(data[i]) != blockdev.BlockSize {
			return blockdev.ErrBadSize
		}
		ent := payload[i*writevEntrySize:]
		binary.LittleEndian.PutUint64(ent, n)
		copy(ent[8:], data[i])
	}
	return r.bus.Call(Request{From: r.from, To: r.driver, Op: OpBlockWritev, Payload: payload}).Err
}

// NumBlocks implements blockdev.Device.
func (r *RemoteDevice) NumBlocks() uint64 { return r.nblocks }

// Sync implements blockdev.Device.
func (r *RemoteDevice) Sync() error {
	return r.bus.Call(Request{From: r.from, To: r.driver, Op: OpBlockSync}).Err
}

// Stats implements blockdev.Device; per-device counters live in the driver
// kernel's device, so the remote view reports zeros.
func (r *RemoteDevice) Stats() blockdev.Stats { return blockdev.Stats{} }

// --- resource partitioning ---

// Share is one kernel's resource assignment.
type Share struct {
	Kernel   string
	CPUs     float64
	MemPages uint64
}

// Partitioner tracks the dynamic CPU/memory partition across sub-kernels
// ("the different kernels cooperate to (dynamically) partition CPU and
// memory resources", §2).
type Partitioner struct {
	totalCPUs  float64
	totalPages uint64

	mu     sync.Mutex
	shares map[string]Share
}

// NewPartitioner creates a partitioner for a machine with the given
// resources.
func NewPartitioner(cpus float64, memPages uint64) *Partitioner {
	return &Partitioner{
		totalCPUs:  cpus,
		totalPages: memPages,
		shares:     make(map[string]Share),
	}
}

// Assign sets (or replaces) a kernel's share, rejecting over-commit.
func (p *Partitioner) Assign(kernel string, cpus float64, pages uint64) error {
	if cpus < 0 {
		return fmt.Errorf("kernel: negative cpu share")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var usedCPU float64
	var usedPages uint64
	for name, s := range p.shares {
		if name == kernel {
			continue
		}
		usedCPU += s.CPUs
		usedPages += s.MemPages
	}
	if usedCPU+cpus > p.totalCPUs || usedPages+pages > p.totalPages {
		return fmt.Errorf("%w: %q wants %.1f cpus / %d pages; free %.1f / %d",
			ErrOverCommit, kernel, cpus, pages, p.totalCPUs-usedCPU, p.totalPages-usedPages)
	}
	p.shares[kernel] = Share{Kernel: kernel, CPUs: cpus, MemPages: pages}
	return nil
}

// Rebalance moves resources from one kernel to another atomically.
func (p *Partitioner) Rebalance(from, to string, cpus float64, pages uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	src, ok := p.shares[from]
	if !ok {
		return fmt.Errorf("kernel: rebalance from unknown kernel %q", from)
	}
	dst, ok := p.shares[to]
	if !ok {
		return fmt.Errorf("kernel: rebalance to unknown kernel %q", to)
	}
	if src.CPUs < cpus || src.MemPages < pages {
		return fmt.Errorf("%w: %q holds %.1f cpus / %d pages", ErrOverCommit, from, src.CPUs, src.MemPages)
	}
	src.CPUs -= cpus
	src.MemPages -= pages
	dst.CPUs += cpus
	dst.MemPages += pages
	p.shares[from] = src
	p.shares[to] = dst
	return nil
}

// Shares lists the current assignment sorted by kernel name.
func (p *Partitioner) Shares() []Share {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Share, 0, len(p.shares))
	for _, s := range p.shares {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kernel < out[j].Kernel })
	return out
}

// Free reports unassigned resources. CPU shares are floats summed in map
// order, so a fully partitioned machine can accumulate rounding noise; free
// amounts below one part per million of a CPU collapse to exactly zero.
func (p *Partitioner) Free() (cpus float64, pages uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cpus, pages = p.totalCPUs, p.totalPages
	for _, s := range p.shares {
		cpus -= s.CPUs
		pages -= s.MemPages
	}
	if cpus < 1e-6 && cpus > -1e-6 {
		cpus = 0
	}
	return cpus, pages
}

// --- machine ---

// KernelInfo describes one registered sub-kernel.
type KernelInfo struct {
	Name  string
	Class Class
}

// Machine assembles the purpose-kernel topology: a bus, the registered
// sub-kernels, and the resource partition.
type Machine struct {
	Bus       *Bus
	Partition *Partitioner

	mu      sync.Mutex
	kernels map[string]KernelInfo
}

// MachineOptions configures NewMachine.
type MachineOptions struct {
	CPUs     float64
	MemPages uint64
	// PerMsgCost and PerByteCost set the simulated IPC cost.
	PerMsgCost  time.Duration
	PerByteCost time.Duration
}

// DefaultMachineOptions models a small server: 8 CPUs, 64k pages (256 MiB),
// 1us per message and 1ns per byte of IPC.
func DefaultMachineOptions() MachineOptions {
	return MachineOptions{
		CPUs:        8,
		MemPages:    65536,
		PerMsgCost:  time.Microsecond,
		PerByteCost: time.Nanosecond,
	}
}

// NewMachine builds an empty machine.
func NewMachine(opts MachineOptions) *Machine {
	return &Machine{
		Bus:       NewBus(opts.PerMsgCost, opts.PerByteCost),
		Partition: NewPartitioner(opts.CPUs, opts.MemPages),
		kernels:   make(map[string]KernelInfo),
	}
}

// AddKernel records a sub-kernel in the machine inventory.
func (m *Machine) AddKernel(name string, class Class) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.kernels[name]; dup {
		return fmt.Errorf("%w: %q", ErrKernelExists, name)
	}
	m.kernels[name] = KernelInfo{Name: name, Class: class}
	return nil
}

// Kernels lists the registered sub-kernels sorted by name.
func (m *Machine) Kernels() []KernelInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]KernelInfo, 0, len(m.kernels))
	for _, k := range m.kernels {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
