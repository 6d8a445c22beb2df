// Package core assembles the complete rgpdOS machine — the paper's
// contribution as a bootable system.
//
// Boot builds the machine of §2: two simulated disks, each reached only
// through a bus-charged kernel.RemoteDevice (the IO-driver kernel
// boundary), the general-purpose side with its traditional filesystem for
// non-personal data, and the rgpdOS side hosting DBFS, the Processing
// Store, the DED, the built-in processings, the collection registry and the
// rights engine. The sub-kernels are named, not isolated: they share one
// address space, and CPU and memory are not partitioned between them.
//
// The System type is the public API of the reproduction: examples, the
// CLIs and the benchmark harness all program against it exactly as a data
// operator would program against rgpdOS — declare types in the DSL, feed
// collection sources, register purpose-annotated processings, ps_invoke
// them, and serve data-subject rights.
//
// Options is the machine's whole configuration: Boot validates it and
// hands each layer its value as it builds that layer, and nothing
// re-tunes a running machine.
package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/admission"
	"repro/internal/audit"
	"repro/internal/blockdev"
	"repro/internal/builtins"
	"repro/internal/collect"
	"repro/internal/cryptoshred"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/inode"
	"repro/internal/kernel"
	"repro/internal/lsm"
	"repro/internal/plainfs"
	"repro/internal/ps"
	"repro/internal/rights"
	"repro/internal/simclock"
	"repro/internal/typedsl"
)

// Options configures Boot.
type Options struct {
	// PDDiskBlocks / NPDDiskBlocks size the two simulated disks.
	PDDiskBlocks  uint64
	NPDDiskBlocks uint64
	// NInodes sizes the inode tables: the PD disk's pdPartitions
	// filesystems split it evenly (each gets a quarter, rounded up) and
	// the NPD filesystem gets half. JournalBlocks is the journal region of
	// each PD partition and of the NPD filesystem.
	NInodes       uint64
	JournalBlocks uint64
	// Clock drives membranes, audit and TTLs. Defaults to a Sim clock at
	// the epoch so runs are reproducible.
	Clock simclock.Clock
	// AuthorityBits sizes the escrow keypair (default 2048; tests use
	// 1024).
	AuthorityBits int
	// Workers sizes the DED executor pool used by InvokeBatch: how many
	// invocations (for distinct subjects, thanks to DBFS subject sharding)
	// run concurrently. Defaults to GOMAXPROCS.
	Workers int
	// MembraneCache bounds DBFS's decoded-membrane cache (entries across
	// all shards): 0 = the dbfs default, negative disables the cache, so
	// every membrane read reaches the device (SC8 counts device ops that
	// way).
	MembraneCache int
	// BlockCache bounds the write-back block buffer cache of each PD
	// partition's filesystem (in blocks): 0 = the inode default
	// (inode.DefaultCacheBlocks), negative disables the caches, so every
	// block read and write reaches the device (as for MembraneCache).
	BlockCache int
	// SweepInterval is the retention sweeper's pass cadence when
	// StartSweeper runs it (0 = rights.DefaultSweepInterval).
	SweepInterval time.Duration
	// ColdAfter enables the DBFS cold tier: records untouched this long
	// are demoted into compressed per-subject archives
	// by the repacker's next pass. 0 (the default) disables demotion;
	// promotion of already-archived records always works.
	ColdAfter time.Duration
	// CryptoRand overrides the vault's entropy source. ONLY for
	// deterministic experiments (the SC8 and SC9 golden tests need
	// byte-identical results across runs, hence reproducible ciphertext);
	// nil keeps the crypto/rand default.
	CryptoRand io.Reader
	// NodeName labels this machine when it runs as one node of a
	// multi-node cluster (internal/cluster): it appears in the cluster's
	// status output and per-node error reports. Empty for standalone
	// machines.
	NodeName string
}

// pdPartitions is how many equal partitions of the PD disk back DBFS, each
// one inode filesystem with its own journal. Acknowledged writes wait only
// for their own partition's commit queue, so commits on different
// partitions overlap. It is a constant, not GOMAXPROCS, so a machine's disk
// layout (and every device count) is the same on every host. The 64
// subject shards divide evenly across it: each partition holds a contiguous
// range of 16 (dbfs routes shard sh to partition sh*4/64), so a cluster
// node, which holds the subjects of one residue of the subject hash, still
// spreads them over every partition.
const pdPartitions = 4

// repackInterval is the gap between the background repacker's passes.
const repackInterval = time.Minute

// ErrBadOptions reports Options that Boot rejected; nothing was built.
var ErrBadOptions = errors.New("core: invalid options")

// validate rejects the negative durations that no layer gives a meaning
// to; zero keeps its documented default.
func (o *Options) validate() error {
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"SweepInterval", o.SweepInterval},
		{"ColdAfter", o.ColdAfter},
	} {
		if d.v < 0 {
			return fmt.Errorf("%w: %s %v is negative", ErrBadOptions, d.name, d.v)
		}
	}
	return nil
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
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// System is a booted rgpdOS machine.
type System struct {
	opts Options

	bus       *kernel.Bus
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

	// repacker is the cold-tier repacker, built at Boot and stopped until
	// StartRepacker: every repackInterval it runs one dbfs RepackCold pass.
	repacker *simclock.Loop
}

// Boot assembles and starts a machine. Options that fail validation
// return an error wrapping ErrBadOptions.
func Boot(opts Options) (*System, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts.withDefaults()
	s := &System{opts: opts}

	// PD and NPD IO cross the bus to their disks' IO-driver kernels.
	s.bus = kernel.NewBus(time.Microsecond, time.Nanosecond)
	var err error
	if s.pdDev, err = blockdev.NewMem(opts.PDDiskBlocks, blockdev.DefaultLatency()); err != nil {
		return nil, fmt.Errorf("core: pd disk: %w", err)
	}
	if s.npdDev, err = blockdev.NewMem(opts.NPDDiskBlocks, blockdev.DefaultLatency()); err != nil {
		return nil, fmt.Errorf("core: npd disk: %w", err)
	}
	pdView := kernel.NewRemoteDevice(s.bus, s.pdDev)
	npdView := kernel.NewRemoteDevice(s.bus, s.npdDev)

	// Security substrate.
	s.guard = lsm.NewGuard()
	if s.authority, err = cryptoshred.NewAuthority(opts.AuthorityBits); err != nil {
		return nil, fmt.Errorf("core: authority: %w", err)
	}
	s.vault = cryptoshred.NewVault(s.authority.PublicKey())
	if opts.CryptoRand != nil {
		s.vault.SetRand(opts.CryptoRand)
	}

	// Filesystems. DBFS sits on pdPartitions inode filesystems, one per
	// equal partition of the PD view, each with its own journal, committer
	// and block cache; subject shards are routed across them. Partitions
	// wrap the bus-routed view, so split-kernel IO accounting is unchanged.
	inodeOpts := inode.Options{
		NInodes:       (opts.NInodes + pdPartitions - 1) / pdPartitions,
		JournalBlocks: opts.JournalBlocks,
		Clock:         opts.Clock,
		CacheBlocks:   opts.BlockCache,
	}
	per := opts.PDDiskBlocks / pdPartitions
	s.pdFSs = make([]*inode.FS, pdPartitions)
	for i := range s.pdFSs {
		part, err := blockdev.NewPartition(pdView, uint64(i)*per, per)
		if err != nil {
			return nil, fmt.Errorf("core: pd partition %d: %w", i, err)
		}
		if s.pdFSs[i], err = inode.Format(part, inodeOpts); err != nil {
			return nil, fmt.Errorf("core: pd filesystem %d: %w", i, err)
		}
	}
	if s.store, err = dbfs.Create(s.pdFSs, s.guard, s.vault, opts.Clock, dbfs.Config{
		MembraneCache: opts.MembraneCache, ColdAfter: opts.ColdAfter,
	}); err != nil {
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
	s.ded = ded.New(s.store, dedTok, s.log, opts.Clock)
	s.sources = collect.NewRegistry()
	s.acq = builtins.NewAcquirer(s.ded, s.sources, s.log)
	s.ps = ps.New(s.ded, s.log, s.acq.Acquire)
	s.ps.SetDefaultWorkers(opts.Workers)
	s.ps.ConfigureAdmission(admission.New(admission.Options{Clock: opts.Clock}))
	if err := builtins.Register(s.ps); err != nil {
		return nil, fmt.Errorf("core: builtins: %w", err)
	}
	if s.rights, err = rights.New(s.ps, s.ded, s.log, opts.Clock, opts.SweepInterval); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s.repacker = simclock.NewLoop(opts.Clock, repackInterval, func(now time.Time, _ bool) {
		// A failed pass is counted in dbfs.Stats.RepackErrors.
		_, _ = s.store.RepackCold(dedTok, now)
	}, nil)
	return s, nil
}

// StartSweeper starts the machine's background retention sweeper — the
// rights engine's one sweeper — and returns it; if it is already running it
// is returned unchanged. Its cadence is Options.SweepInterval.
func (s *System) StartSweeper() *rights.Sweeper {
	sw := s.rights.Sweeper()
	sw.Start()
	return sw
}

// StartRepacker starts the machine's background cold-tier repacker and
// returns it; if it is already running it is returned unchanged. The
// repacker drives dbfs.Store.RepackCold with the DED's capability every
// repackInterval. With ColdAfter unset the passes run and demote nothing.
func (s *System) StartRepacker() *simclock.Loop {
	s.repacker.Start()
	return s.repacker
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

// Rights is the data-subject rights engine.
func (s *System) Rights() *rights.Engine { return s.rights }

// NodeName reports the label this machine carries as a cluster node
// (Options.NodeName; empty for standalone machines).
func (s *System) NodeName() string { return s.opts.NodeName }

// Audit is the processing log.
func (s *System) Audit() *audit.Log { return s.log }

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
		Bus:     s.bus.Stats(),
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
