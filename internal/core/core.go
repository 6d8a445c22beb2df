// Package core assembles the complete rgpdOS machine — the paper's
// contribution as a bootable system.
//
// Boot builds the purpose-kernel topology of §2: two IO-driver kernels (one
// per simulated disk), the general-purpose kernel with its traditional
// filesystem for non-personal data, and the rgpdOS kernel hosting DBFS, the
// Processing Store, the DED, the built-in processings, the collection
// registry and the rights engine. CPU and memory are partitioned across the
// sub-kernels; all personal-data IO crosses the bus to its driver kernel.
//
// The System type is the public API of the reproduction: examples, the
// CLIs and the benchmark harness all program against it exactly as a data
// operator would program against rgpdOS — declare types in the DSL, feed
// collection sources, register purpose-annotated processings, ps_invoke
// them, and serve data-subject rights.
//
// Runtime knobs flow through one door: ApplyTuning applies a validated
// core.Tuning document atomically per knob (nothing applies if any knob is
// invalid) and Tuning() snapshots the live configuration. DESIGN.md
// ("Tuning API") lists the knobs.
package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/audit"
	"repro/internal/blockdev"
	"repro/internal/builtins"
	"repro/internal/coldtier"
	"repro/internal/collect"
	"repro/internal/cryptoshred"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/inode"
	"repro/internal/kernel"
	"repro/internal/lsm"
	"repro/internal/membrane"
	"repro/internal/plainfs"
	"repro/internal/ps"
	"repro/internal/rights"
	"repro/internal/simclock"
	"repro/internal/typedsl"
)

// Kernel names in the machine topology.
const (
	PDDriverKernel  = "io.pd0"
	NPDDriverKernel = "io.npd0"
	GPKernel        = "gp"
	RgpdOSKernel    = "rgpdos"
)

// Options configures Boot.
type Options struct {
	// PDDiskBlocks / NPDDiskBlocks size the two simulated disks.
	PDDiskBlocks  uint64
	NPDDiskBlocks uint64
	// NInodes and JournalBlocks shape both filesystems.
	NInodes       uint64
	JournalBlocks uint64
	// Clock drives membranes, audit and TTLs. Defaults to a Sim clock at
	// the epoch so runs are reproducible.
	Clock simclock.Clock
	// AuthorityBits sizes the escrow keypair (default 2048; tests use
	// 1024).
	AuthorityBits int
	// Machine sets the kernel topology resources and IPC costs.
	Machine kernel.MachineOptions
	// DirectIO bypasses the IO-driver kernels (monolithic ablation, OV3).
	DirectIO bool
	// Workers sizes the DED executor pool used by InvokeBatch: how many
	// invocations (for distinct subjects, thanks to DBFS subject sharding)
	// run concurrently. Defaults to GOMAXPROCS.
	Workers int
	// FSInstances is how many inode filesystem instances back DBFS. Above
	// one, the PD disk is split into that many partitions (each with its
	// own journal) and subject shards are routed across them, so
	// shard-disjoint inserts never share a filesystem lock. Default 1.
	FSInstances int
	// Shards is the DBFS subject-shard count — the unit of lock
	// parallelism and of routing across FSInstances. 0 means
	// dbfs.DefaultShards (64, the shard-collision sweep's pick); it must
	// be at least FSInstances. Persisted in the store's shard config, so
	// a remount of the same devices must not change it.
	Shards int
	// CommitWindow is how long each journal's group committer waits for
	// more transactions before flushing a commit group. Default 0 (drain
	// immediately; concurrent arrivals still coalesce).
	CommitWindow time.Duration
	// MembraneCache bounds DBFS's decoded-membrane cache (entries across
	// all shards): 0 = the dbfs default, negative disables the cache, so
	// every membrane read reaches the device (SC8 counts device ops that
	// way).
	MembraneCache int
	// BlockCache bounds each inode filesystem instance's shared write-back
	// block buffer cache (in blocks): 0 = the inode default
	// (inode.DefaultCacheBlocks), negative disables the cache, so every
	// block read and write reaches the device (as for MembraneCache).
	BlockCache int
	// AdmissionQueue bounds how many non-maintenance ps_invoke requests
	// may be admitted (queued or running) at once; the excess is rejected
	// with admission.ErrOverloaded instead of queueing without bound —
	// the machine's protection against heavy traffic. Zero means unbounded
	// admission: the controller still tracks depth, latency and
	// per-purpose rate limits (refilled off Clock), it just never rejects
	// on depth.
	AdmissionQueue int
	// SweepInterval is the retention sweeper's pass cadence when
	// StartSweeper runs it (0 = rights.DefaultSweepInterval). Runtime
	// adjustable via ApplyTuning.
	SweepInterval time.Duration
	// ColdAfter enables the DBFS cold tier: records untouched this long
	// are demoted into compressed per-subject content-addressed archives
	// by the repacker's next pass. 0 (the default) disables demotion;
	// promotion of already-archived records always works. Runtime
	// adjustable via ApplyTuning.
	ColdAfter time.Duration
	// ColdInterval is the cold-tier repacker's pass cadence when
	// StartRepacker runs it (0 = coldtier.DefaultRepackInterval). Runtime
	// adjustable via ApplyTuning (RepackInterval).
	ColdInterval time.Duration
	// CryptoRand overrides the vault's entropy source. ONLY for
	// deterministic experiments (SC7 asserts byte-identical archive output
	// across runs, which needs reproducible ciphertext); nil keeps the
	// crypto/rand default.
	CryptoRand io.Reader
	// NodeName labels this machine when it runs as one node of a
	// multi-node cluster (internal/cluster): it appears in the cluster's
	// status output and per-node error reports. Empty for standalone
	// machines.
	NodeName string
}

func (o *Options) withDefaults() {
	if o.PDDiskBlocks == 0 {
		o.PDDiskBlocks = 16384
	}
	if o.NPDDiskBlocks == 0 {
		o.NPDDiskBlocks = 4096
	}
	if o.NInodes == 0 {
		o.NInodes = 8192
	}
	if o.JournalBlocks == 0 {
		o.JournalBlocks = 256
	}
	if o.Clock == nil {
		o.Clock = simclock.NewSim(simclock.Epoch)
	}
	if o.AuthorityBits == 0 {
		o.AuthorityBits = 2048
	}
	if o.Machine.CPUs == 0 {
		o.Machine = kernel.DefaultMachineOptions()
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.FSInstances <= 0 {
		o.FSInstances = 1
	}
	if o.Shards == 0 {
		o.Shards = dbfs.DefaultShards
	}
	if o.SweepInterval <= 0 {
		o.SweepInterval = rights.DefaultSweepInterval
	}
	if o.ColdInterval <= 0 {
		o.ColdInterval = coldtier.DefaultRepackInterval
	}
}

// System is a booted rgpdOS machine.
type System struct {
	opts Options

	machine   *kernel.Machine
	guard     *lsm.Guard
	authority *cryptoshred.Authority
	vault     *cryptoshred.Vault

	pdDev  *blockdev.Mem
	npdDev *blockdev.Mem

	pdFSs []*inode.FS
	npdFS *plainfs.FS
	store *dbfs.Store

	log     *audit.Log
	ded     *ded.DED
	ps      *ps.Store
	rights  *rights.Engine
	sources *collect.Registry
	acq     *builtins.Acquirer

	// tuneMu serializes ApplyTuning documents (individual knob writes are
	// already safe; the mutex makes multi-knob documents apply without
	// interleaving).
	tuneMu sync.Mutex
	// repacker is the cold-tier repacker, built at Boot and stopped until
	// StartRepacker; like the rights engine's sweeper it holds its own
	// interval, so ApplyTuning and Tuning() talk to the live object.
	repacker *coldtier.Repacker
}

// Boot assembles and starts a machine.
func Boot(opts Options) (*System, error) {
	opts.withDefaults()
	s := &System{opts: opts}

	// Purpose-kernel topology.
	s.machine = kernel.NewMachine(opts.Machine)
	var err error
	if s.pdDev, err = blockdev.NewMem(opts.PDDiskBlocks, blockdev.DefaultLatency()); err != nil {
		return nil, fmt.Errorf("core: pd disk: %w", err)
	}
	if s.npdDev, err = blockdev.NewMem(opts.NPDDiskBlocks, blockdev.DefaultLatency()); err != nil {
		return nil, fmt.Errorf("core: npd disk: %w", err)
	}
	if _, err = kernel.NewBlockDriverKernel(s.machine.Bus, PDDriverKernel, s.pdDev); err != nil {
		return nil, fmt.Errorf("core: pd driver: %w", err)
	}
	if _, err = kernel.NewBlockDriverKernel(s.machine.Bus, NPDDriverKernel, s.npdDev); err != nil {
		return nil, fmt.Errorf("core: npd driver: %w", err)
	}
	for _, k := range []struct {
		name  string
		class kernel.Class
	}{
		{PDDriverKernel, kernel.ClassIODriver},
		{NPDDriverKernel, kernel.ClassIODriver},
		{GPKernel, kernel.ClassGeneralPurpose},
		{RgpdOSKernel, kernel.ClassGDPR},
	} {
		if err := s.machine.AddKernel(k.name, k.class); err != nil {
			return nil, fmt.Errorf("core: topology: %w", err)
		}
	}
	// Initial partition: rgpdOS gets the PD-processing share, the GP
	// kernel the bulk of the rest, drivers a sliver each. Rebalance at
	// runtime via Machine.Partition.
	cpus, pages := opts.Machine.CPUs, opts.Machine.MemPages
	assign := []struct {
		name  string
		cpu   float64
		pages uint64
	}{
		{GPKernel, cpus * 0.4, pages * 4 / 10},
		{PDDriverKernel, cpus * 0.1, pages / 10},
		{NPDDriverKernel, cpus * 0.1, pages / 10},
	}
	usedCPU, usedPages := 0.0, uint64(0)
	for _, a := range assign {
		if err := s.machine.Partition.Assign(a.name, a.cpu, a.pages); err != nil {
			return nil, fmt.Errorf("core: partition: %w", err)
		}
		usedCPU += a.cpu
		usedPages += a.pages
	}
	// rgpdOS takes the exact remainder so the machine is fully partitioned
	// regardless of integer/float rounding.
	if err := s.machine.Partition.Assign(RgpdOSKernel, cpus-usedCPU, pages-usedPages); err != nil {
		return nil, fmt.Errorf("core: partition: %w", err)
	}

	// Device views: PD IO crosses the bus to its driver kernel unless the
	// monolithic ablation is requested.
	var pdView, npdView blockdev.Device = s.pdDev, s.npdDev
	if !opts.DirectIO {
		if pdView, err = kernel.NewRemoteDevice(s.machine.Bus, RgpdOSKernel, PDDriverKernel); err != nil {
			return nil, fmt.Errorf("core: pd remote device: %w", err)
		}
		if npdView, err = kernel.NewRemoteDevice(s.machine.Bus, GPKernel, NPDDriverKernel); err != nil {
			return nil, fmt.Errorf("core: npd remote device: %w", err)
		}
	}

	// Security substrate.
	s.guard = lsm.NewGuard()
	if s.authority, err = cryptoshred.NewAuthority(opts.AuthorityBits); err != nil {
		return nil, fmt.Errorf("core: authority: %w", err)
	}
	s.vault = cryptoshred.NewVault(s.authority.PublicKey())
	if opts.CryptoRand != nil {
		s.vault.SetRand(opts.CryptoRand)
	}

	// Filesystems. DBFS sits on FSInstances inode filesystems: one over
	// the whole PD view, or — when sharding storage — one per equal
	// partition of it, each with its own journal region. Partitions wrap
	// the (possibly bus-routed) view, so split-kernel IO accounting is
	// unchanged.
	inodeOpts := inode.Options{
		NInodes:       (opts.NInodes + uint64(opts.FSInstances) - 1) / uint64(opts.FSInstances),
		JournalBlocks: opts.JournalBlocks,
		Clock:         opts.Clock,
		CommitWindow:  opts.CommitWindow,
		CacheBlocks:   opts.BlockCache,
	}
	s.pdFSs = make([]*inode.FS, opts.FSInstances)
	if opts.FSInstances == 1 {
		if s.pdFSs[0], err = inode.Format(pdView, inodeOpts); err != nil {
			return nil, fmt.Errorf("core: pd filesystem: %w", err)
		}
	} else {
		per := opts.PDDiskBlocks / uint64(opts.FSInstances)
		for i := range s.pdFSs {
			part, err := blockdev.NewPartition(pdView, uint64(i)*per, per)
			if err != nil {
				return nil, fmt.Errorf("core: pd partition %d: %w", i, err)
			}
			if s.pdFSs[i], err = inode.Format(part, inodeOpts); err != nil {
				return nil, fmt.Errorf("core: pd filesystem %d: %w", i, err)
			}
		}
	}
	if s.store, err = dbfs.CreateShards(s.pdFSs, s.guard, s.vault, opts.Clock, opts.Shards); err != nil {
		return nil, fmt.Errorf("core: dbfs: %w", err)
	}
	if s.npdFS, err = plainfs.Format(npdView, inode.Options{
		NInodes: opts.NInodes / 2, JournalBlocks: opts.JournalBlocks, Clock: opts.Clock,
	}); err != nil {
		return nil, fmt.Errorf("core: npd filesystem: %w", err)
	}

	// rgpdOS components.
	s.log = audit.NewLog(opts.Clock)
	dedTok := s.guard.Mint("ded", lsm.CapDBFS)
	s.ded = ded.New(s.store, dedTok, s.log, membrane.NewLedger(), opts.Clock)
	s.sources = collect.NewRegistry()
	s.acq = builtins.NewAcquirer(s.ded, s.sources, s.log)
	s.ps = ps.New(s.ded, s.log, s.acq.Acquire)
	s.ps.SetDefaultWorkers(opts.Workers)
	s.ps.ConfigureAdmission(admission.New(admission.Options{
		MaxPending: opts.AdmissionQueue,
		Clock:      opts.Clock,
	}))
	if err := builtins.Register(s.ps); err != nil {
		return nil, fmt.Errorf("core: builtins: %w", err)
	}
	s.rights = rights.New(s.ps, s.ded, s.log, opts.Clock)
	s.rights.Sweeper().SetInterval(opts.SweepInterval)
	s.repacker = coldtier.NewRepacker(opts.Clock, coldtier.TargetFunc(
		func(now time.Time) (coldtier.PassStats, error) {
			return s.store.RepackCold(dedTok, now)
		}), coldtier.Options{Interval: opts.ColdInterval})
	// Boot-time knob installs go through the same door an operator uses
	// (ApplyTuning), so the tuning snapshot is coherent from boot.
	var boot Tuning
	if opts.MembraneCache != 0 {
		mc := opts.MembraneCache
		boot.MembraneCache = &mc
	}
	if opts.ColdAfter > 0 {
		ca := opts.ColdAfter
		boot.ColdAfter = &ca
	}
	if boot.MembraneCache != nil || boot.ColdAfter != nil {
		if err := s.ApplyTuning(boot); err != nil {
			return nil, fmt.Errorf("core: boot tuning: %w", err)
		}
	}
	return s, nil
}

// MustBoot is Boot for examples and benchmarks; it panics on error.
func MustBoot(opts Options) *System {
	s, err := Boot(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// --- component accessors ---

// PS is the Processing Store — the only rgpdOS entry point for
// applications.
func (s *System) PS() *ps.Store { return s.ps }

// Workers reports the machine's DED executor pool size.
func (s *System) Workers() int { return s.opts.Workers }

// InvokeBatch runs many ps_invoke requests concurrently on the machine's
// executor pool (Options.Workers). Outcomes keep request order; see
// ps.Store.InvokeBatch for the per-request failure semantics.
func (s *System) InvokeBatch(reqs []ps.InvokeRequest) []ded.BatchItem {
	return s.ps.InvokeBatch(reqs, 0) // 0 = the pool default set at boot
}

// InvokeAsync runs one ps_invoke request off the caller's goroutine; the
// outcome arrives on the returned channel.
func (s *System) InvokeAsync(req ps.InvokeRequest) <-chan ded.BatchItem {
	return s.ps.InvokeAsync(req)
}

// Rights is the data-subject rights engine.
func (s *System) Rights() *rights.Engine { return s.rights }

// NodeName reports the label this machine carries as a cluster node
// (Options.NodeName; empty for standalone machines).
func (s *System) NodeName() string { return s.opts.NodeName }

// Audit is the processing log.
func (s *System) Audit() *audit.Log { return s.log }

// Machine exposes the purpose-kernel topology (partition, bus stats).
func (s *System) Machine() *kernel.Machine { return s.machine }

// Guard exposes the LSM guard (denial records; experiments mint attacker
// tokens against it).
func (s *System) Guard() *lsm.Guard { return s.guard }

// Authority is the escrow authority (held off-machine in a real
// deployment; exposed here so experiments can play the investigator).
func (s *System) Authority() *cryptoshred.Authority { return s.authority }

// Vault exposes the key vault (escrow lookups).
func (s *System) Vault() *cryptoshred.Vault { return s.vault }

// NPD is the general-purpose kernel's traditional filesystem, open to any
// process — the second filesystem of §2.
func (s *System) NPD() *plainfs.FS { return s.npdFS }

// DBFS exposes the personal-data store. Callers still need the DED's
// capability token for every operation, so this accessor grants nothing by
// itself; kernel-space components (rights, benches) use it together with
// DEDToken.
func (s *System) DBFS() *dbfs.Store { return s.store }

// DEDToken returns the DED's DBFS capability for kernel-space callers
// (experiments seeding state). Application code must never hold it.
func (s *System) DEDToken() *lsm.Token { return s.ded.Token() }

// Clock returns the machine clock.
func (s *System) Clock() simclock.Clock { return s.opts.Clock }

// SimClock returns the clock as a *simclock.Sim when the machine was booted
// with one (the default), for TTL experiments.
func (s *System) SimClock() (*simclock.Sim, bool) {
	sim, ok := s.opts.Clock.(*simclock.Sim)
	return sim, ok
}

// --- sysadmin operations ---

// DeclareTypesDSL compiles Listing-1-style declarations and creates the
// types in DBFS.
func (s *System) DeclareTypesDSL(src string, copts typedsl.CompileOptions) error {
	schemas, err := typedsl.CompileSource(src, copts)
	if err != nil {
		return err
	}
	for _, sch := range schemas {
		if err := s.store.CreateType(s.ded.Token(), sch); err != nil {
			return err
		}
	}
	return nil
}

// CreateType declares a PD type from an in-memory schema.
func (s *System) CreateType(sch *dbfs.Schema) error {
	return s.store.CreateType(s.ded.Token(), sch)
}

// RegisterSource attaches a collection source to a PD type.
func (s *System) RegisterSource(typeName string, src collect.Source) {
	s.sources.Register(typeName, src)
}

// Acquire runs the acquisition builtin: collect subjects' data of typeName
// through method and store it membrane-wrapped.
func (s *System) Acquire(typeName, method string, subjects []string) (int, error) {
	return s.acq.Acquire(typeName, method, subjects)
}

// ResidueScan scans the raw PD disk for a plaintext pattern. Zero hits
// after an erasure is the right-to-be-forgotten guarantee.
func (s *System) ResidueScan(pattern []byte) []uint64 {
	return blockdev.FindResidue(s.pdDev, pattern)
}

// NPDResidueScan scans the raw NPD disk.
func (s *System) NPDResidueScan(pattern []byte) []uint64 {
	return blockdev.FindResidue(s.npdDev, pattern)
}

// ResidueScanAny counts plaintext hits of any of the patterns across both
// raw disks, one traversal per disk regardless of how many patterns are
// checked. Post-run invariant sweeps that sample many erased secrets use
// this batch form.
func (s *System) ResidueScanAny(patterns [][]byte) int {
	return blockdev.FindResidueAny(s.pdDev, patterns) + blockdev.FindResidueAny(s.npdDev, patterns)
}

// Stats aggregates machine-wide counters.
type Stats struct {
	DBFS    dbfs.Stats
	Bus     kernel.BusStats
	PDDisk  blockdev.Stats
	NPDDisk blockdev.Stats
	Audit   int
	Denials int
}

// Stats returns a snapshot across components.
func (s *System) Stats() Stats {
	return Stats{
		DBFS:    s.store.Stats(),
		Bus:     s.machine.Bus.Stats(),
		PDDisk:  s.pdDev.Stats(),
		NPDDisk: s.npdDev.Stats(),
		Audit:   s.log.Len(),
		Denials: s.guard.DenialCount(),
	}
}

// ErrNoFormSource reports SubmitForm on a type without a web form.
var ErrNoFormSource = errors.New("core: type has no web form source")

// SubmitForm queues a subject's web-form submission for the type.
func (s *System) SubmitForm(typeName, subjectID string, rec dbfs.Record) error {
	src, err := s.sources.Lookup(typeName, "web_form")
	if err != nil {
		return fmt.Errorf("%w: %s", ErrNoFormSource, typeName)
	}
	form, ok := src.(*collect.WebFormSource)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoFormSource, typeName)
	}
	form.Submit(subjectID, rec)
	return nil
}
