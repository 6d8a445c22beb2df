package dbfs

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cryptoshred"
	"repro/internal/inode"
	"repro/internal/lsm"
	"repro/internal/membrane"
	"repro/internal/simclock"
	"repro/internal/wal"
)

// Tree and file names inside the DBFS inode layout.
const (
	schemaRootName  = "schema"
	subjectRootName = "subjects"
	formatRootName  = "format"
	tablesRootName  = "tables"

	defFileName = "def"
	seqFileName = "seq"

	// shardCfgName is the per-instance config file at each FS root,
	// recording (instance count, instance index). Open validates it so a
	// remount with a different instance count — which would silently
	// misroute every shard (shardAt's ranges change) — fails loudly instead.
	shardCfgName = "shardcfg"

	dataSuffix = ".data"
	sensSuffix = ".sens"
	memSuffix  = ".mem"
	// erasedSuffix names an erased record's tombstoned membrane: Erase
	// renames <n>.mem to <n>.erased, so the listings, which pick .mem
	// names, skip the record while lookups by pdid still find it.
	erasedSuffix = ".erased"

	// sensKeySuffix derives the separate data key for sensitive fields.
	sensKeySuffix = "#sens"
)

// Sentinel errors.
var (
	// ErrTypeExists reports CreateType over an existing type.
	ErrTypeExists = errors.New("dbfs: type already exists")
	// ErrNoType reports an operation on an undeclared type.
	ErrNoType = errors.New("dbfs: no such type")
	// ErrNoRecord reports an unknown pdid.
	ErrNoRecord = errors.New("dbfs: no such record")
	// ErrBadPDID reports a malformed pdid.
	ErrBadPDID = errors.New("dbfs: malformed pdid")
	// ErrNoMembrane reports a record missing its membrane — forbidden by
	// enforcement rule 3; it can only arise from on-disk corruption.
	ErrNoMembrane = errors.New("dbfs: record has no membrane")
)

// Stats counts DBFS activity for the experiment harness. MembraneReads
// counts every successful membrane fetch; CacheHits/CacheMisses split those
// between cache-served and decoded-from-disk, and CacheEvictions counts
// entries displaced by the capacity bound.
type Stats struct {
	TypesCreated   uint64
	Inserts        uint64
	Updates        uint64
	DataReads      uint64
	MembraneReads  uint64
	MembraneWrites uint64
	Erasures       uint64
	Deletes        uint64
	CacheHits      uint64
	CacheMisses    uint64
	CacheEvictions uint64

	// Block buffer cache counters, summed across every backing filesystem
	// instance's blockdev.Cached wrapper; all zero when the block cache is
	// disabled.
	BlockCacheHits      uint64
	BlockCacheMisses    uint64
	BlockCacheEvictions uint64
	BlockWritebacks     uint64

	// Cold-tier counters (see cold.go): Demotions counts records repacked
	// hot → archive, Promotions records rematerialized on first read,
	// RepackErrors repack passes that failed, SnapshotsTaken membrane
	// snapshots captured. ColdRecords and ColdBytesSaved are gauges
	// snapshotted by Stats(): entries currently archived, and the raw bytes
	// those entries represent minus the encoded archive bytes holding them
	// (the compression win; can go negative for tiny archives, where
	// container overhead dominates).
	Demotions      uint64
	Promotions     uint64
	RepackErrors   uint64
	SnapshotsTaken uint64
	ColdRecords    uint64
	ColdBytesSaved int64
}

// DefaultShards is the subject-shard count of every store: it sizes the
// shard lock table and every shard-congruent structure (the membrane
// cache, the cold index, the rights due-index). Subjects hash onto shards,
// so operations on distinct subjects almost never contend; the
// shard-collision sweep (TestShardBalanceSweep) picked 64 as the largest
// count keeping worst-shard skew near 1x at realistic subject populations.
const DefaultShards = 64

// hashSubject is the raw FNV-1a hash of a subject ID (inline: this runs on
// every record operation, so it must not allocate).
func hashSubject(subjectID string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(subjectID); i++ {
		h = (h ^ uint32(subjectID[i])) * 16777619
	}
	return h
}

// SubjectHash is the raw FNV-1a hash of a subject ID. Cross-store
// placement (the cluster router's node choice) derives from this
// full-entropy value, never from ShardOf: `hash % DefaultShards` keeps
// only six bits, so placing modulo a node count that does not divide 64
// would load the nodes unevenly.
func SubjectHash(subjectID string) uint32 { return hashSubject(subjectID) }

// ShardOf reports the subject-shard index a subject ID hashes to.
func ShardOf(subjectID string) uint32 { return hashSubject(subjectID) % DefaultShards }

// Store is the mounted DBFS. All methods demand an LSM token carrying
// CapDBFS. Safe for concurrent use.
//
// Locking is subject-sharded: per-record state (the record inodes reachable
// through a subject's trees) is guarded by the shard lock of its subject ID,
// so the PD hot path for distinct subjects runs in parallel — subjects are
// the natural unit of parallelism because every DED executes on behalf of
// exactly one subject's data at a time. Schema, format and sequence state is
// cross-subject and stays behind a narrow global metaMu. Lock order:
// shard → metaMu (never the reverse). Insert seals its record
// before taking any Store lock; reads, updates and erasures run their
// crypto under the subject's shard lock (blocking only that shard), because
// sealing/unsealing there must serialize with key shredding.
//
// Storage is shard-routed too: each subject shard maps to one of N inode
// filesystem instances (a contiguous range of shards per instance, see
// shardAt), each with its own superblock, allocation bitmap and journal —
// typically one blockdev.Partition of the PD disk per instance. Shard-disjoint inserts
// therefore never contend on a filesystem lock or a journal, which removes
// the storage-layer serialization point left after subject sharding. Every
// instance carries its own "subjects" and "tables" root trees, and a type's
// tables/<type> tree on an instance is made by the first insert there of a
// subject of that type (subjectTypeTree); cross-subject metadata (schema
// defs, formats, seq counters) lives only on instance 0.
type Store struct {
	fss   []*inode.FS
	guard *lsm.Guard
	vault *cryptoshred.Vault
	clock simclock.Clock

	// metaMu guards the type-level maps and the persisted seq files, and
	// serializes the creation of a tables/<type> tree (subjectTypeTree).
	metaMu sync.RWMutex
	types  map[string]pdType
	seqs   map[string]uint64
	// seqHighs is each type's durably reserved id watermark: ids up to
	// seqHighs[t] may be handed out without touching the disk. See
	// nextSeq.
	seqHighs map[string]uint64

	// shards is the subject-shard lock table. See shardOf.
	shards [DefaultShards]sync.RWMutex

	// mcache memoizes decoded membranes per record (see cache.go); nil
	// when Config.MembraneCache disabled it. Entries are maintained under
	// the shard locks, so readers can never observe a membrane older than
	// the last committed mutation.
	mcache *membraneCache

	// expiryNote, when set, observes the retention deadline
	// (CreatedAt+TTL) of every membrane as it is persisted — the feed for
	// the rights engine's deadline-aware sweeper. Set once via
	// SetExpiryNotifier before concurrent use; called under the subject's
	// shard write lock, so it must be fast and must not call back into
	// the store.
	expiryNote func(subjectID string, expiry time.Time)

	// scanLocks counts, per subject shard, the shard-lock passes taken by
	// subject-scoped scans (ListBySubject and batched membrane fetches).
	// The retention sweeper's skip-untouched-shards property is asserted
	// against these counters.
	scanLocks [DefaultShards]atomic.Uint64

	// cold is the cold-tier state: idle threshold, per-shard archive index
	// and touch clocks, and the per-instance cold/snapshot tree roots. See
	// cold.go; its per-shard mutex is a leaf under the shard lock (lock
	// order shard → cold.mu).
	cold coldState

	stats storeCounters

	schemaRoot inode.Ino // on fss[0]
	formatRoot inode.Ino // on fss[0]
	// subjectRoots[i] / tablesRoots[i] are the per-instance major trees.
	subjectRoots []inode.Ino
	tablesRoots  []inode.Ino
}

// shardRef is one subject's routing: its shard index, lock shard and the
// filesystem instance (with that instance's major-tree roots) holding its
// records.
type shardRef struct {
	idx        uint32
	lk         *sync.RWMutex
	fs         *inode.FS
	subjRoot   inode.Ino
	tablesRoot inode.Ino
	coldRoot   inode.Ino
	snapRoot   inode.Ino
}

// shardAt resolves a shard index to its lock and filesystem instance. Each
// instance holds a contiguous range of shards, so the instance does not
// repeat the low bits of the subject hash that a cluster places nodes by.
func (s *Store) shardAt(shard uint32) shardRef {
	fi := int(shard) * len(s.fss) / DefaultShards
	return shardRef{
		idx:        shard,
		lk:         &s.shards[shard],
		fs:         s.fss[fi],
		subjRoot:   s.subjectRoots[fi],
		tablesRoot: s.tablesRoots[fi],
		coldRoot:   s.cold.roots[fi],
		snapRoot:   s.cold.snapRoots[fi],
	}
}

// shardOf maps a subject ID onto its lock shard and filesystem instance.
func (s *Store) shardOf(subjectID string) shardRef {
	return s.shardAt(ShardOf(subjectID))
}

// metaFS is the instance holding cross-subject metadata.
func (s *Store) metaFS() *inode.FS { return s.fss[0] }

// storeCounters are the event counters of Stats, each bumped without a
// lock on its operation's path.
type storeCounters struct {
	typesCreated, inserts, updates, dataReads           atomic.Uint64
	membraneReads, membraneWrites, erasures, deletes    atomic.Uint64
	demotions, promotions, repackErrors, snapshotsTaken atomic.Uint64
}

// Config is what a store is created or opened with; it is fixed for the
// store's lifetime.
type Config struct {
	// MembraneCache bounds the decoded-membrane cache (entries across all
	// shards): 0 means the default bound of 8192, negative disables the
	// cache, so every membrane read reaches the device.
	MembraneCache int
	// ColdAfter is the cold tier's idle threshold: records untouched this
	// long are demoted into their subject's archive by the next repack
	// pass. 0 disables demotion; promotion of already-archived records
	// always works.
	ColdAfter time.Duration
}

// treeSlot names a root tree and where its inode number goes.
type treeSlot struct {
	name string
	dst  *inode.Ino
}

// Create formats the DBFS trees across freshly formatted inode
// filesystem instances. Every instance gets its own "subjects", "tables",
// "cold" and "snapshots" trees; instance 0 additionally holds the schema
// and format trees. The subject-shard → instance routing (shardAt) depends
// on len(fss), so the shard and instance counts are persisted per instance
// and must stay the same across remounts of the same devices (Open
// validates both). There must be no more instances than DefaultShards, or
// trailing instances could never receive traffic.
func Create(fss []*inode.FS, guard *lsm.Guard, vault *cryptoshred.Vault, clock simclock.Clock, cfg Config) (*Store, error) {
	if len(fss) == 0 {
		return nil, fmt.Errorf("dbfs: need at least one filesystem instance")
	}
	if len(fss) > DefaultShards {
		return nil, fmt.Errorf("dbfs: %d instances above the shard count %d — instances would be unreachable", len(fss), DefaultShards)
	}
	if clock == nil {
		clock = simclock.Real{}
	}
	s := newStore(fss, guard, vault, clock, cfg)
	for i, fs := range fss {
		var shardCfg [24]byte
		binary.LittleEndian.PutUint64(shardCfg[0:], uint64(len(fss)))
		binary.LittleEndian.PutUint64(shardCfg[8:], uint64(i))
		binary.LittleEndian.PutUint64(shardCfg[16:], DefaultShards)
		trees := []treeSlot{
			{schemaRootName, &s.schemaRoot},
			{formatRootName, &s.formatRoot},
			{subjectRootName, &s.subjectRoots[i]},
			{tablesRootName, &s.tablesRoots[i]},
		}
		if i > 0 {
			trees = trees[2:] // schema and format live on instance 0 only
		}
		// One instance's whole DBFS layout is one transaction.
		err := fs.Do([]inode.Ino{inode.RootIno}, func(op *inode.Op) error {
			for _, spec := range trees {
				ino, err := makeTree(op, inode.RootIno, spec.name, spec.name+"-root")
				if err != nil {
					return fmt.Errorf("%s tree: %w", spec.name, err)
				}
				*spec.dst = ino
			}
			_, err := createFile(op, inode.RootIno, shardCfgName, "shard-config", shardCfg[:])
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("dbfs: format instance %d: %w", i, err)
		}
	}
	// The cold-tier trees: one transaction each.
	for i, fs := range fss {
		for _, t := range s.coldTrees(i) {
			err := fs.Do([]inode.Ino{inode.RootIno}, func(op *inode.Op) (err error) {
				*t.dst, err = makeTree(op, inode.RootIno, t.name, t.name+"-root")
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("dbfs: create %s tree on instance %d: %w", t.name, i, err)
			}
		}
	}
	return s, nil
}

// newStore builds the in-memory Store shell.
func newStore(fss []*inode.FS, guard *lsm.Guard, vault *cryptoshred.Vault, clock simclock.Clock, cfg Config) *Store {
	s := &Store{
		fss:          fss,
		guard:        guard,
		vault:        vault,
		clock:        clock,
		types:        make(map[string]pdType),
		seqs:         make(map[string]uint64),
		seqHighs:     make(map[string]uint64),
		subjectRoots: make([]inode.Ino, len(fss)),
		tablesRoots:  make([]inode.Ino, len(fss)),
	}
	s.cold.roots = make([]inode.Ino, len(fss))
	s.cold.snapRoots = make([]inode.Ino, len(fss))
	s.cold.after = max(cfg.ColdAfter, 0)
	if cfg.MembraneCache >= 0 {
		s.mcache = newMembraneCache(cfg.MembraneCache)
	}
	return s
}

// readShardCfg loads one instance's persisted shard config: 24 bytes
// (instance count, instance index, subject-shard count), the last of which
// must be DefaultShards.
func readShardCfg(fs *inode.FS) (count, idx uint64, err error) {
	raw, err := readChild(fs, inode.RootIno, shardCfgName)
	if err != nil {
		return 0, 0, fmt.Errorf("shard config: %w", err)
	}
	if len(raw) != 24 {
		return 0, 0, fmt.Errorf("bad shard config: %d bytes, want 24", len(raw))
	}
	if sh := binary.LittleEndian.Uint64(raw[16:]); sh != DefaultShards {
		return 0, 0, fmt.Errorf("bad shard config: %d subject shards, want %d — shard routing would change", sh, DefaultShards)
	}
	return binary.LittleEndian.Uint64(raw[0:]), binary.LittleEndian.Uint64(raw[8:]), nil
}

// Open mounts an existing DBFS from its mounted instances (same order and
// count as at Create): it validates the persisted shard geometry on every
// instance (the instance count and index, and the subject-shard count, so
// a remount can never silently re-route subjects), resolves the root trees
// on every instance, then loads every schema and the format descriptors
// from instance 0 (the once-per-session read).
func Open(fss []*inode.FS, guard *lsm.Guard, vault *cryptoshred.Vault, clock simclock.Clock, cfg Config) (*Store, error) {
	if len(fss) == 0 {
		return nil, fmt.Errorf("dbfs: need at least one filesystem instance")
	}
	if clock == nil {
		clock = simclock.Real{}
	}
	s := newStore(fss, guard, vault, clock, cfg)
	var err error
	if s.schemaRoot, err = s.metaFS().Lookup(inode.RootIno, schemaRootName); err != nil {
		return nil, fmt.Errorf("dbfs: open: %w", err)
	}
	if s.formatRoot, err = s.metaFS().Lookup(inode.RootIno, formatRootName); err != nil {
		return nil, fmt.Errorf("dbfs: open: %w", err)
	}
	for i, fs := range fss {
		if s.subjectRoots[i], err = fs.Lookup(inode.RootIno, subjectRootName); err != nil {
			return nil, fmt.Errorf("dbfs: open instance %d: %w", i, err)
		}
		if s.tablesRoots[i], err = fs.Lookup(inode.RootIno, tablesRootName); err != nil {
			return nil, fmt.Errorf("dbfs: open instance %d: %w", i, err)
		}
		for _, t := range s.coldTrees(i) {
			if *t.dst, err = fs.Lookup(inode.RootIno, t.name); err != nil {
				return nil, fmt.Errorf("dbfs: open instance %d: %s tree: %w", i, t.name, err)
			}
		}
		count, idx, err := readShardCfg(fs)
		if err != nil {
			return nil, fmt.Errorf("dbfs: open instance %d: %w", i, err)
		}
		if count != uint64(len(fss)) || idx != uint64(i) {
			return nil, fmt.Errorf("dbfs: open instance %d: shard config says instance %d of %d, got %d of %d — shard routing would change",
				i, idx, count, i, len(fss))
		}
	}
	meta := s.metaFS()
	tables, err := meta.Children(s.schemaRoot)
	if err != nil {
		return nil, fmt.Errorf("dbfs: open: list tables: %w", err)
	}
	for _, tb := range tables {
		raw, err := readChild(meta, tb.Ino, defFileName)
		if err != nil {
			return nil, fmt.Errorf("dbfs: open table %q: %w", tb.Name, err)
		}
		sch, err := DecodeSchema(raw)
		if err != nil {
			return nil, fmt.Errorf("dbfs: open table %q: %w", tb.Name, err)
		}
		seqRaw, err := readChild(meta, tb.Ino, seqFileName)
		if err != nil {
			return nil, fmt.Errorf("dbfs: open table %q seq: %w", tb.Name, err)
		}
		if len(seqRaw) != 8 {
			return nil, fmt.Errorf("dbfs: open table %q seq: %d bytes, want 8", tb.Name, len(seqRaw))
		}
		// The format descriptor, read once per session, is the codec split.
		raw, err = readChild(meta, s.formatRoot, tb.Name)
		if err != nil {
			return nil, fmt.Errorf("dbfs: open format %q: %w", tb.Name, err)
		}
		var entries []formatEntry
		if err := json.Unmarshal(raw, &entries); err != nil {
			return nil, fmt.Errorf("dbfs: decode format %q: %w", tb.Name, err)
		}
		t := pdType{sch: sch}
		t.plain, t.sens = splitFormat(entries)
		s.types[sch.Name] = t
		// The persisted value is the reserved watermark (see nextSeq):
		// resuming from it skips unused leased ids but never reuses one.
		s.seqs[sch.Name] = binary.LittleEndian.Uint64(seqRaw)
		s.seqHighs[sch.Name] = s.seqs[sch.Name]
	}
	// Cold tier: rebuild the in-memory archive index — the tier's
	// once-per-session read.
	if err := s.rebuildColdIndex(); err != nil {
		return nil, err
	}
	return s, nil
}

// readChild reads the full contents of the file parent/name.
func readChild(fs *inode.FS, parent inode.Ino, name string) ([]byte, error) {
	ino, err := fs.Lookup(parent, name)
	if err != nil {
		return nil, err
	}
	return readAll(fs, ino)
}

// readAll reads the full contents of a file inode.
func readAll(fs *inode.FS, ino inode.Ino) ([]byte, error) {
	info, err := fs.Stat(ino)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, info.Size)
	if _, err := fs.ReadAt(ino, 0, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// makeTree is a scope step: allocate a tree inode tagged tag and link it
// under parent as name.
func makeTree(op *inode.Op, parent inode.Ino, name, tag string) (inode.Ino, error) {
	ino, err := op.Alloc(inode.ModeTree, tag)
	if err != nil {
		return 0, err
	}
	return ino, op.Link(parent, name, ino)
}

// createFile is a scope step: allocate a file inode tagged tag holding
// contents and link it under parent as name.
func createFile(op *inode.Op, parent inode.Ino, name, tag string, contents []byte) (inode.Ino, error) {
	ino, err := op.Alloc(inode.ModeFile, tag)
	if err != nil {
		return 0, err
	}
	if err := op.Write(ino, 0, contents); err != nil {
		return 0, err
	}
	return ino, op.Link(parent, name, ino)
}

// removeFile is a scope step: unlink name → ino from parent and free ino.
func removeFile(op *inode.Op, parent inode.Ino, name string, ino inode.Ino) error {
	if err := op.Unlink(parent, name, ino); err != nil {
		return err
	}
	return op.Free(ino)
}

// createRecordFiles is the scope step that materializes one record under
// its type tree: data, the sensitive part when the type has one, and the
// membrane. The three files and their links are one transaction, so a
// record is never visible (or durable) without its membrane.
func createRecordFiles(op *inode.Op, tree inode.Ino, recName string, data, sens, mem []byte) error {
	if _, err := createFile(op, tree, recName+dataSuffix, "record", data); err != nil {
		return err
	}
	if sens != nil {
		if _, err := createFile(op, tree, recName+sensSuffix, "record-sens", sens); err != nil {
			return err
		}
	}
	_, err := createFile(op, tree, recName+memSuffix, "membrane", mem)
	return err
}

// recordFiles are the inode numbers of one stored record on its shard's
// instance: its type tree, data, sensitive part (0 when the type has none)
// and membrane. The membrane is linked as <n>.erased once the record is
// erased, <n>.mem before.
type recordFiles struct {
	tree, data, sens, mem inode.Ino
	erased                bool
}

// memName is the name the record's membrane is linked under.
func (f recordFiles) memName(recName string) string {
	if f.erased {
		return recName + erasedSuffix
	}
	return recName + memSuffix
}

// removeRecordFiles unlinks and frees one record's files, whichever name
// its membrane has, and drops its cached membrane; Delete and demotion both
// remove a record this way. Caller holds the subject's shard write lock.
func (s *Store) removeRecordFiles(sr shardRef, r ref, f recordFiles) error {
	recName := strconv.FormatUint(r.recNo, 10)
	declared := []inode.Ino{f.tree, f.data, f.mem}
	if f.sens != 0 {
		declared = append(declared, f.sens)
	}
	// One commit point: the unlinks and frees are one transaction, so the
	// lock-free listings (and a crash) see the whole record or none of it —
	// never a membrane whose data is already gone.
	err := sr.fs.Do(declared, func(op *inode.Op) error {
		for _, file := range []struct {
			name string
			ino  inode.Ino
		}{{f.memName(recName), f.mem}, {recName + sensSuffix, f.sens}, {recName + dataSuffix, f.data}} {
			if file.ino == 0 {
				continue
			}
			if err := removeFile(op, f.tree, file.name, file.ino); err != nil {
				return err
			}
		}
		return nil
	})
	// The record is gone, so no read may resurrect its membrane; and a
	// commit that failed after the enqueue leaves memory ahead of the disk,
	// so the next read must surface the stored state. Either way the cached
	// membrane goes.
	s.mcache.drop(sr.idx, r.pdid)
	return err
}

// check mediates an access through the LSM guard.
func (s *Store) check(tok *lsm.Token, op lsm.Operation, id string) error {
	return s.guard.Check(tok, lsm.CapDBFS, op, lsm.ObjectRef{Class: "dbfs", ID: id})
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	c := &s.stats
	st := Stats{
		TypesCreated:   c.typesCreated.Load(),
		Inserts:        c.inserts.Load(),
		Updates:        c.updates.Load(),
		DataReads:      c.dataReads.Load(),
		MembraneReads:  c.membraneReads.Load(),
		MembraneWrites: c.membraneWrites.Load(),
		Erasures:       c.erasures.Load(),
		Deletes:        c.deletes.Load(),
		Demotions:      c.demotions.Load(),
		Promotions:     c.promotions.Load(),
		RepackErrors:   c.repackErrors.Load(),
		SnapshotsTaken: c.snapshotsTaken.Load(),
	}
	st.CacheHits, st.CacheMisses, st.CacheEvictions = s.mcache.counters()
	for _, fs := range s.fss {
		ds := fs.CacheStats()
		st.BlockCacheHits += ds.CacheHits
		st.BlockCacheMisses += ds.CacheMisses
		st.BlockCacheEvictions += ds.CacheEvictions
		st.BlockWritebacks += ds.Writebacks
	}
	st.ColdRecords, st.ColdBytesSaved = s.coldGauges()
	return st
}

// SetExpiryNotifier registers fn to observe the retention deadline
// (CreatedAt+TTL) of every membrane DBFS persists — inserts and membrane
// rewrites alike. Only membranes with a TTL are reported, and only those
// persisted after the call: deadlines already stored are not replayed, so
// the rights engine registers here and then seeds its retention due-index
// with one scan of the stored records. fn runs under the subject's shard
// write lock: it must be fast and must not call back into the store.
// Register before concurrent use.
func (s *Store) SetExpiryNotifier(fn func(subjectID string, expiry time.Time)) {
	s.expiryNote = fn
}

// noteExpiry reports a freshly persisted membrane's retention deadline to
// the notifier; caller holds the subject's shard write lock.
func (s *Store) noteExpiry(m *membrane.Membrane) {
	if s.expiryNote != nil && m.TTL > 0 && !m.CreatedAt.IsZero() {
		s.expiryNote(m.SubjectID, m.CreatedAt.Add(m.TTL))
	}
}

// ShardScans reports, per subject shard, how many shard-locked scan
// passes (ListBySubject calls and per-shard GetMembranes groups) have
// touched it. A shard the retention sweeper skipped shows an unchanged
// counter — the observable form of "no due records ⇒ no shard lock".
func (s *Store) ShardScans() []uint64 {
	out := make([]uint64, DefaultShards)
	for i := range s.scanLocks {
		out[i] = s.scanLocks[i].Load()
	}
	return out
}

// typeFor resolves a declared type under the meta lock. A type is
// immutable once created, so the result is safe to use lock-free.
func (s *Store) typeFor(typeName string) (pdType, error) {
	s.metaMu.RLock()
	defer s.metaMu.RUnlock()
	t, ok := s.types[typeName]
	if !ok {
		return pdType{}, fmt.Errorf("%w: %q", ErrNoType, typeName)
	}
	return t, nil
}

// CreateType declares a new PD type: it validates the schema and, in one
// transaction on instance 0, makes the type's entry in the schema tree (def
// and seq) and its format descriptor. The per-instance tables/<type> trees
// are made later, each by the type's first insert on that instance.
func (s *Store) CreateType(tok *lsm.Token, sch *Schema) error {
	if err := s.check(tok, lsm.OpCreate, "type/"+sch.Name); err != nil {
		return err
	}
	if err := sch.Validate(); err != nil {
		return err
	}
	if strings.ContainsRune(sch.Name, '/') {
		return fmt.Errorf("%w: type name %q contains '/'", ErrBadSchema, sch.Name)
	}
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	if _, ok := s.types[sch.Name]; ok {
		return fmt.Errorf("%w: %q", ErrTypeExists, sch.Name)
	}
	raw, err := EncodeSchema(sch)
	if err != nil {
		return err
	}
	fraw, err := json.Marshal(formatOf(sch))
	if err != nil {
		return fmt.Errorf("dbfs: encode format %q: %w", sch.Name, err)
	}
	err = s.metaFS().Do([]inode.Ino{s.schemaRoot, s.formatRoot}, func(op *inode.Op) error {
		tb, err := makeTree(op, s.schemaRoot, sch.Name, "table:"+sch.Name)
		if err != nil {
			return err
		}
		if _, err := createFile(op, tb, defFileName, "schema-def", raw); err != nil {
			return err
		}
		var seq [8]byte
		if _, err := createFile(op, tb, seqFileName, "schema-seq", seq[:]); err != nil {
			return err
		}
		_, err = createFile(op, s.formatRoot, sch.Name, "format:"+sch.Name, fraw)
		return err
	})
	if err != nil {
		return fmt.Errorf("dbfs: create type %q: %w", sch.Name, err)
	}
	t := pdType{sch: sch}
	t.plain, t.sens = partsOf(sch)
	s.types[sch.Name] = t
	s.seqs[sch.Name] = 0
	s.seqHighs[sch.Name] = 0
	s.stats.typesCreated.Add(1)
	return nil
}

// SchemaOf returns the schema for a type.
func (s *Store) SchemaOf(tok *lsm.Token, name string) (*Schema, error) {
	if err := s.check(tok, lsm.OpRead, "type/"+name); err != nil {
		return nil, err
	}
	t, err := s.typeFor(name)
	if err != nil {
		return nil, err
	}
	cp := *t.sch
	return &cp, nil
}

// PDID formats the identifier of a record.
func PDID(typeName, subjectID string, rec uint64) string {
	return typeName + "/" + subjectID + "/" + strconv.FormatUint(rec, 10)
}

// SplitPDID parses a pdid into its components.
func SplitPDID(pdid string) (typeName, subjectID string, rec uint64, err error) {
	parts := strings.Split(pdid, "/")
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" {
		return "", "", 0, fmt.Errorf("%w: %q", ErrBadPDID, pdid)
	}
	n, err := strconv.ParseUint(parts[2], 10, 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("%w: %q", ErrBadPDID, pdid)
	}
	return parts[0], parts[1], n, nil
}

// ref is a parsed pdid, threaded through the locked helpers so the hot
// path parses (and validates) each identifier exactly once.
type ref struct {
	pdid      string
	typeName  string
	subjectID string
	recNo     uint64
}

// parseRef validates and splits a pdid.
func parseRef(pdid string) (ref, error) {
	typeName, subjectID, recNo, err := SplitPDID(pdid)
	if err != nil {
		return ref{}, err
	}
	return ref{pdid: pdid, typeName: typeName, subjectID: subjectID, recNo: recNo}, nil
}

// resolve parses a pdid and resolves its type — the one metaMu round-trip
// each record operation pays.
func (s *Store) resolve(pdid string) (ref, pdType, error) {
	r, err := parseRef(pdid)
	if err != nil {
		return ref{}, pdType{}, err
	}
	t, err := s.typeFor(r.typeName)
	if err != nil {
		return ref{}, pdType{}, err
	}
	return r, t, nil
}

// subjectTypeTree resolves (creating if create is set) the tree inode
// holding subject's records of the given type on the subject's filesystem
// instance, maintaining both major trees: subjects/<subj>/<type> and
// tables/<type>/<subj>. Caller holds the subject's shard lock (write-side
// when create is set). First touch is one operation scope over the shared
// parents it mutates, so a subject is never left in one major tree but not
// the other. It makes what is missing: the instance's tables/<type> tree
// when this is the type's first insert there (the only place a per-instance
// tree is made), the subject tree when the subject is new, its record tree,
// and the link from the table's subject list.
func (s *Store) subjectTypeTree(sr shardRef, typeName, subjectID string, create bool) (inode.Ino, error) {
	subjIno, err := sr.fs.Lookup(sr.subjRoot, subjectID)
	newSubject := errors.Is(err, inode.ErrChildNotFound)
	if err != nil && !newSubject {
		return 0, err
	}
	if newSubject && !create {
		return 0, fmt.Errorf("%w: subject %q", ErrNoRecord, subjectID)
	}
	if !newSubject {
		tIno, err := sr.fs.Lookup(subjIno, typeName)
		if err == nil || !errors.Is(err, inode.ErrChildNotFound) {
			return tIno, err
		}
		if !create {
			return 0, fmt.Errorf("%w: subject %q has no %q records", ErrNoRecord, subjectID, typeName)
		}
	}
	subs, err := sr.fs.Lookup(sr.tablesRoot, typeName)
	newTable := errors.Is(err, inode.ErrChildNotFound)
	if newTable {
		// Subjects of other shards on this instance may be making the
		// same tree: look again, and make it, under metaMu.
		s.metaMu.Lock()
		defer s.metaMu.Unlock()
		subs, err = sr.fs.Lookup(sr.tablesRoot, typeName)
		newTable = errors.Is(err, inode.ErrChildNotFound)
	}
	if err != nil && !newTable {
		return 0, err
	}
	declared := []inode.Ino{subs, subjIno}
	if newTable {
		declared[0] = sr.tablesRoot
	}
	if newSubject {
		declared[1] = sr.subjRoot
	}
	var tIno inode.Ino
	err = sr.fs.Do(declared, func(op *inode.Op) (err error) {
		if newTable {
			if subs, err = makeTree(op, sr.tablesRoot, typeName, "table-subjects:"+clipTag(typeName)); err != nil {
				return err
			}
		}
		if newSubject {
			if subjIno, err = makeTree(op, sr.subjRoot, subjectID, "subject:"+clipTag(subjectID)); err != nil {
				return err
			}
		}
		if tIno, err = makeTree(op, subjIno, typeName, "records:"+clipTag(typeName)); err != nil {
			return err
		}
		return op.Link(subs, subjectID, tIno)
	})
	if err != nil {
		return 0, err
	}
	return tIno, nil
}

func clipTag(s string) string {
	const max = 60
	if len(s) > max {
		return s[:max]
	}
	return s
}

// seqLease is how many record ids one durable write of a type's seq file
// reserves. The persisted value is a watermark, not an exact count: after
// a crash or remount the sequence resumes past the watermark, so up to
// seqLease-1 ids can be skipped but none is ever reused — the property
// pdids need. Leasing keeps the metaMu critical section (the one global
// serialization point of an insert) off the journal-flush path for
// seqLease-1 of every seqLease inserts.
const seqLease = 64

// nextSeq hands out the next record id for typeName under the meta lock,
// durably extending the reserved watermark by seqLease whenever the lease
// is exhausted (one 8-byte journaled write per seqLease ids).
func (s *Store) nextSeq(typeName string) (uint64, error) {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	n := s.seqs[typeName] + 1
	if n > s.seqHighs[typeName] {
		high := s.seqHighs[typeName] + seqLease
		meta := s.metaFS()
		tb, err := meta.Lookup(s.schemaRoot, typeName)
		if err != nil {
			return 0, err
		}
		seqIno, err := meta.Lookup(tb, seqFileName)
		if err != nil {
			return 0, err
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], high)
		if _, err := meta.WriteAt(seqIno, 0, buf[:]); err != nil {
			return 0, err
		}
		s.seqHighs[typeName] = high
	}
	s.seqs[typeName] = n
	return n, nil
}

// Insert stores a new record of typeName for subjectID. If m is nil the
// schema's default membrane is applied — every record always carries a
// membrane (enforcement rule 3). The plain and sensitive parts are sealed
// under separate per-PD keys. It returns the new pdid.
func (s *Store) Insert(tok *lsm.Token, typeName, subjectID string, rec Record, m *membrane.Membrane) (string, error) {
	if err := s.check(tok, lsm.OpCreate, typeName+"/"+subjectID); err != nil {
		return "", err
	}
	if subjectID == "" || strings.ContainsRune(subjectID, '/') {
		return "", fmt.Errorf("%w: bad subject id %q", ErrBadPDID, subjectID)
	}
	t, err := s.typeFor(typeName)
	if err != nil {
		return "", err
	}
	sch := t.sch
	if err := validateRecord(sch, rec); err != nil {
		return "", err
	}
	recNo, err := s.nextSeq(typeName)
	if err != nil {
		return "", fmt.Errorf("dbfs: insert: seq: %w", err)
	}
	pdid := PDID(typeName, subjectID, recNo)
	if m == nil {
		m = sch.DefaultMembrane(pdid, subjectID, s.clock.Now())
	} else {
		m = m.Clone()
		m.PDID = pdid
		m.TypeName = typeName
		m.SubjectID = subjectID
		if m.CreatedAt.IsZero() {
			m.CreatedAt = s.clock.Now()
		}
	}
	if err := m.Validate(); err != nil {
		return "", err
	}

	// Encode and seal outside the shard lock: the crypto is the expensive
	// part of an insert and touches only the (internally locked) vault.
	// Any failure after the first Seal must shred the keys it minted: the
	// seq counter never reuses this pdid, so without cleanup the vault
	// would hold live keys for a record that never materialized.
	fail := func(err error) (string, error) {
		_, _ = s.vault.Shred(pdid)
		_, _ = s.vault.Shred(pdid + sensKeySuffix)
		return "", fmt.Errorf("dbfs: insert %s: %w", pdid, err)
	}
	plainBytes, err := encodeRecordPart(sch, rec, t.plain)
	if err != nil {
		return "", err
	}
	sealed, err := s.vault.Seal(pdid, plainBytes)
	if err != nil {
		return fail(fmt.Errorf("seal: %w", err))
	}
	var sealedSens []byte
	if len(t.sens) > 0 {
		sensBytes, err := encodeRecordPart(sch, rec, t.sens)
		if err != nil {
			return fail(err)
		}
		if sealedSens, err = s.vault.Seal(pdid+sensKeySuffix, sensBytes); err != nil {
			return fail(fmt.Errorf("seal sensitive: %w", err))
		}
	}
	memBytes, err := m.Encode()
	if err != nil {
		return fail(err)
	}
	sr := s.shardOf(subjectID)
	sr.lk.Lock()
	defer sr.lk.Unlock()
	tree, err := s.subjectTypeTree(sr, typeName, subjectID, true)
	if err != nil {
		return fail(err)
	}
	// One commit point: data, sensitive part, membrane and their links are
	// one transaction, so listings (and a crash) see the whole record or
	// none of it, and a failure leaves nothing to clean up but the keys.
	err = sr.fs.Do([]inode.Ino{tree}, func(op *inode.Op) error {
		return createRecordFiles(op, tree, strconv.FormatUint(recNo, 10), sealed, sealedSens, memBytes)
	})
	if err != nil {
		return fail(err)
	}
	// m is private to this insert (cloned or schema-built above), so the
	// cache can keep it and first reads decode nothing.
	s.mcache.put(sr.idx, pdid, m)
	s.coldTouch(sr, pdid)
	s.noteExpiry(m)
	s.stats.inserts.Add(1)
	return pdid, nil
}

// recordInos resolves the inode numbers of a record's files on its shard's
// instance, erased records included. Caller holds the subject's shard lock
// and has already validated the type (resolve).
func (s *Store) recordInos(sr shardRef, r ref) (recordFiles, error) {
	var f recordFiles
	tree, err := s.subjectTypeTree(sr, r.typeName, r.subjectID, false)
	if err != nil {
		return f, err
	}
	f.tree = tree
	recName := strconv.FormatUint(r.recNo, 10)
	f.data, err = sr.fs.Lookup(tree, recName+dataSuffix)
	if errors.Is(err, inode.ErrChildNotFound) {
		// Not hot — the record may live in its subject's cold archive.
		// Promote it back and retry: callers see one namespace, the first
		// read of a demoted record just pays the rematerialization.
		promoted, perr := s.promoteIfCold(sr, r, tree)
		if perr != nil {
			return f, perr
		}
		if !promoted {
			return f, fmt.Errorf("%w: %s", ErrNoRecord, r.pdid)
		}
		f.data, err = sr.fs.Lookup(tree, recName+dataSuffix)
	}
	if err != nil {
		return f, err
	}
	// A record's files are linked by one transaction (Insert, promotion), so
	// a visible data file proves the membrane and sens part are visible too;
	// Erase renames the membrane in one transaction as well.
	f.mem, err = sr.fs.Lookup(tree, recName+memSuffix)
	if errors.Is(err, inode.ErrChildNotFound) {
		f.erased = true
		f.mem, err = sr.fs.Lookup(tree, recName+erasedSuffix)
	}
	if errors.Is(err, inode.ErrChildNotFound) {
		return f, fmt.Errorf("%w: %s", ErrNoMembrane, r.pdid)
	}
	if err != nil {
		return f, err
	}
	f.sens, err = sr.fs.Lookup(tree, recName+sensSuffix)
	if errors.Is(err, inode.ErrChildNotFound) {
		f.sens = 0
	} else if err != nil {
		return f, err
	}
	return f, nil
}

// GetMembrane loads a record's membrane (the DED's ded_load_membrane step).
// The result is shared with the membrane cache and other readers: it is
// read-only. Change a membrane through MutateMembrane.
func (s *Store) GetMembrane(tok *lsm.Token, pdid string) (*membrane.Membrane, error) {
	if err := s.check(tok, lsm.OpRead, pdid+memSuffix); err != nil {
		return nil, err
	}
	r, _, err := s.resolve(pdid)
	if err != nil {
		return nil, err
	}
	sr := s.shardOf(r.subjectID)
	sr.lk.RLock()
	defer sr.lk.RUnlock()
	return s.getMembraneLocked(sr, r)
}

// getMembraneLocked loads a membrane, serving from the decoded-membrane
// cache when possible; caller holds the subject's shard lock (either side),
// which is what makes a cache fill here coherent — no mutator can commit
// concurrently, so the filled value is the freshest stored state. The result
// is shared and read-only; a mutator clones it first.
func (s *Store) getMembraneLocked(sr shardRef, r ref) (*membrane.Membrane, error) {
	if m := s.mcache.get(sr.idx, r.pdid); m != nil {
		s.coldTouch(sr, r.pdid)
		s.stats.membraneReads.Add(1)
		return m, nil
	}
	f, err := s.recordInos(sr, r)
	if err != nil {
		return nil, err
	}
	raw, err := readAll(sr.fs, f.mem)
	if err != nil {
		return nil, fmt.Errorf("dbfs: read membrane %s: %w", r.pdid, err)
	}
	m, err := membrane.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("dbfs: membrane %s: %w", r.pdid, err)
	}
	s.mcache.put(sr.idx, r.pdid, m)
	s.coldTouch(sr, r.pdid)
	s.stats.membraneReads.Add(1)
	return m, nil
}

// GetMembranes loads many membranes in one pass, grouping the pdids by
// subject shard so each shard lock is taken once per batch instead of once
// per record (the DED's ded_load_membrane stage and the rights engine fetch
// whole candidate lists at a time). Results keep input order; the first
// failing pdid aborts the batch. Like GetMembrane's, the results are shared
// and read-only.
func (s *Store) GetMembranes(tok *lsm.Token, pdids []string) ([]*membrane.Membrane, error) {
	out := make([]*membrane.Membrane, len(pdids))
	type item struct {
		idx int
		r   ref
	}
	groups := make(map[uint32][]item)
	for i, pdid := range pdids {
		if err := s.check(tok, lsm.OpRead, pdid+memSuffix); err != nil {
			return nil, err
		}
		r, _, err := s.resolve(pdid)
		if err != nil {
			return nil, err
		}
		shard := ShardOf(r.subjectID)
		groups[shard] = append(groups[shard], item{idx: i, r: r})
	}
	for shard, items := range groups {
		sr := s.shardAt(shard)
		sr.lk.RLock()
		s.scanLocks[sr.idx].Add(1)
		for _, it := range items {
			m, err := s.getMembraneLocked(sr, it.r)
			if err != nil {
				sr.lk.RUnlock()
				return nil, err
			}
			out[it.idx] = m
		}
		sr.lk.RUnlock()
	}
	return out, nil
}

// MutateMembrane applies an atomic read-modify-write to a record's
// membrane: under the subject's shard lock it loads the freshest stored
// state, applies mutate, validates and persists. Concurrent mutations of
// the same record therefore compose instead of overwriting each other
// (and a mutation can never resurrect an erasure tombstone it did not
// see). An erased record's membrane is final: mutating it fails with an
// error wrapping membrane.ErrErased and writes nothing. mutate receives a
// private copy. MutateMembrane returns the membrane as persisted, which is
// then shared with the cache: read-only.
func (s *Store) MutateMembrane(tok *lsm.Token, pdid string, mutate func(*membrane.Membrane) error) (*membrane.Membrane, error) {
	if err := s.check(tok, lsm.OpWrite, pdid+memSuffix); err != nil {
		return nil, err
	}
	r, _, err := s.resolve(pdid)
	if err != nil {
		return nil, err
	}
	sr := s.shardOf(r.subjectID)
	sr.lk.Lock()
	defer sr.lk.Unlock()
	cached, err := s.getMembraneLocked(sr, r)
	if err != nil {
		return nil, err
	}
	if cached.Erased {
		return nil, fmt.Errorf("dbfs: mutate %s: %w", pdid, membrane.ErrErased)
	}
	m := cached.Clone() // readers may hold the cached value
	if err := mutate(m); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := s.putMembraneLocked(sr, r, m); err != nil {
		return nil, err
	}
	return m, nil
}

// putMembraneLocked persists a membrane and writes the decoded value through
// the cache, which keeps m itself: the caller must not change m afterwards.
// Caller holds the subject's shard write lock.
func (s *Store) putMembraneLocked(sr shardRef, r ref, m *membrane.Membrane) error {
	f, err := s.recordInos(sr, r)
	if err != nil {
		return err
	}
	raw, err := m.Encode()
	if err != nil {
		return err
	}
	// Replace the contents in place, as one transaction: the stored bytes
	// are the old membrane or the new one, never a mix.
	return s.commitMembraneLocked(sr, r, m, []inode.Ino{f.mem}, func(op *inode.Op) error { return op.Replace(f.mem, raw) })
}

// commitMembraneLocked runs the scope that persists membrane m over the
// declared inodes and writes m through the cache, which keeps it. A
// failure that surfaces after the enqueue (the journal refused the commit
// group) can still leave memory ahead of the disk, so the cache entry is
// dropped on any error and the next read surfaces the stored state.
// Caller holds the subject's shard write lock.
func (s *Store) commitMembraneLocked(sr shardRef, r ref, m *membrane.Membrane, declared []inode.Ino, fn func(*inode.Op) error) error {
	if err := sr.fs.Do(declared, fn); err != nil {
		s.mcache.drop(sr.idx, r.pdid)
		return err
	}
	s.mcache.put(sr.idx, r.pdid, m)
	s.coldTouch(sr, r.pdid)
	s.noteExpiry(m)
	s.stats.membraneWrites.Add(1)
	return nil
}

// GetRecord loads and decrypts a record's fields (the DED's ded_load_data
// step). The caller is expected to have passed the membrane filter first;
// DBFS itself only enforces the capability check.
func (s *Store) GetRecord(tok *lsm.Token, pdid string) (Record, error) {
	if err := s.check(tok, lsm.OpRead, pdid); err != nil {
		return nil, err
	}
	r, t, err := s.resolve(pdid)
	if err != nil {
		return nil, err
	}
	sr := s.shardOf(r.subjectID)
	sr.lk.RLock()
	defer sr.lk.RUnlock()
	return s.getRecordLocked(sr, r, t)
}

// getRecordLocked loads and decrypts a record; caller holds the subject's
// shard lock (either side) and has resolved the type.
func (s *Store) getRecordLocked(sr shardRef, r ref, t pdType) (Record, error) {
	f, err := s.recordInos(sr, r)
	if err != nil {
		return nil, err
	}
	sealed, err := readAll(sr.fs, f.data)
	if err != nil {
		return nil, fmt.Errorf("dbfs: read %s: %w", r.pdid, err)
	}
	plainBytes, err := s.vault.Open(r.pdid, sealed)
	if err != nil {
		return nil, fmt.Errorf("dbfs: unseal %s: %w", r.pdid, err)
	}
	rec, err := decodeRecordPart(t.sch, plainBytes, t.plain)
	if err != nil {
		return nil, err
	}
	if f.sens != 0 && len(t.sens) > 0 {
		sealedSens, err := readAll(sr.fs, f.sens)
		if err != nil {
			return nil, fmt.Errorf("dbfs: read sensitive %s: %w", r.pdid, err)
		}
		sensBytes, err := s.vault.Open(r.pdid+sensKeySuffix, sealedSens)
		if err != nil {
			return nil, fmt.Errorf("dbfs: unseal sensitive %s: %w", r.pdid, err)
		}
		sensRec, err := decodeRecordPart(t.sch, sensBytes, t.sens)
		if err != nil {
			return nil, err
		}
		for k, v := range sensRec {
			rec[k] = v
		}
	}
	s.coldTouch(sr, r.pdid)
	s.stats.dataReads.Add(1)
	return rec, nil
}

// Update overwrites the stored fields of pdid with rec (a full replacement
// of both parts). Updating an erased record fails with an error wrapping
// membrane.ErrErased and writes nothing.
func (s *Store) Update(tok *lsm.Token, pdid string, rec Record) error {
	if err := s.check(tok, lsm.OpWrite, pdid); err != nil {
		return err
	}
	r, t, err := s.resolve(pdid)
	if err != nil {
		return err
	}
	if err := validateRecord(t.sch, rec); err != nil {
		return err
	}
	// Encode outside the shard lock, but seal INSIDE it: sealing must
	// serialize with a concurrent Erase, so an update never re-writes
	// ciphertext under an escrowed key. The record is resolved before
	// sealing so a nonexistent or erased pdid never mints keys.
	plainBytes, err := encodeRecordPart(t.sch, rec, t.plain)
	if err != nil {
		return err
	}
	var sensBytes []byte
	if len(t.sens) > 0 {
		if sensBytes, err = encodeRecordPart(t.sch, rec, t.sens); err != nil {
			return err
		}
	}
	sr := s.shardOf(r.subjectID)
	sr.lk.Lock()
	defer sr.lk.Unlock()
	f, err := s.recordInos(sr, r)
	if err != nil {
		return err
	}
	if f.erased {
		return fmt.Errorf("dbfs: update %s: %w", pdid, membrane.ErrErased)
	}
	sealed, err := s.vault.Seal(pdid, plainBytes)
	if err != nil {
		return fmt.Errorf("dbfs: update %s: seal: %w", pdid, err)
	}
	var sealedSens []byte
	if sensBytes != nil {
		if sealedSens, err = s.vault.Seal(pdid+sensKeySuffix, sensBytes); err != nil {
			return fmt.Errorf("dbfs: update %s: seal sensitive: %w", pdid, err)
		}
	}
	// Both parts are replaced in place by one transaction: a reader or a
	// crash sees the old record or the new one, never one part of each.
	declared := []inode.Ino{f.data}
	withSens := f.sens != 0 && sealedSens != nil
	if withSens {
		declared = append(declared, f.sens)
	}
	err = sr.fs.Do(declared, func(op *inode.Op) error {
		if err := op.Replace(f.data, sealed); err != nil || !withSens {
			return err
		}
		return op.Replace(f.sens, sealedSens)
	})
	if err != nil {
		return err
	}
	// The membrane bytes are untouched, but the record moved: drop its
	// cached membrane so the next read re-validates against disk.
	s.mcache.drop(sr.idx, pdid)
	s.coldTouch(sr, pdid)
	s.stats.updates.Add(1)
	return nil
}

// Erase implements the crypto-erasure step of the right to be forgotten:
// the record's data keys are shredded with escrow to the authority, and its
// membrane is tombstoned (Erased + EscrowRef) and renamed <n>.mem →
// <n>.erased in the same transaction, so the record leaves ListBySubject
// and ListByType while lookups by pdid still find it. The ciphertext stays
// on disk, readable only by the authority (RawCiphertext + the escrow), and
// so does an archived copy. Erasing an erased record returns its escrow
// reference again.
func (s *Store) Erase(tok *lsm.Token, pdid string) (escrowRef string, err error) {
	if err := s.check(tok, lsm.OpDelete, pdid); err != nil {
		return "", err
	}
	r, _, err := s.resolve(pdid)
	if err != nil {
		return "", err
	}
	sr := s.shardOf(r.subjectID)
	sr.lk.Lock()
	defer sr.lk.Unlock()
	cached, err := s.getMembraneLocked(sr, r)
	if err != nil {
		return "", err
	}
	if cached.Erased {
		return cached.EscrowRef, nil // idempotent
	}
	f, err := s.recordInos(sr, r)
	if err != nil {
		return "", err
	}
	rec, err := s.vault.Shred(pdid)
	if err != nil && !errors.Is(err, cryptoshred.ErrNoKey) {
		return "", fmt.Errorf("dbfs: erase %s: %w", pdid, err)
	}
	// The sensitive part has its own key; shred it too (ignore absence).
	if _, serr := s.vault.Shred(pdid + sensKeySuffix); serr != nil &&
		!errors.Is(serr, cryptoshred.ErrNoKey) && !errors.Is(serr, cryptoshred.ErrKeyDestroyed) {
		return "", fmt.Errorf("dbfs: erase %s sensitive: %w", pdid, serr)
	}
	m := cached.Clone() // readers may hold the cached value
	m.Erased = true
	m.EscrowRef = rec.Ref
	m.Version++
	raw, err := m.Encode()
	if err != nil {
		return "", err
	}
	// One commit point: the tombstone and the rename land together, so a
	// listing (or a crash) sees the live record or the erased one.
	recName := strconv.FormatUint(r.recNo, 10)
	err = s.commitMembraneLocked(sr, r, m, []inode.Ino{f.tree, f.mem}, func(op *inode.Op) error {
		if err := op.Replace(f.mem, raw); err != nil {
			return err
		}
		if err := op.Unlink(f.tree, recName+memSuffix, f.mem); err != nil {
			return err
		}
		return op.Link(f.tree, recName+erasedSuffix, f.mem)
	})
	if err != nil {
		return "", err
	}
	s.stats.erasures.Add(1)
	return rec.Ref, nil
}

// Delete physically removes a record's inodes (data, sensitive part, and
// membrane) and shreds its keys without escrow. Used by the TTL sweeper for
// data whose retention basis simply ran out.
func (s *Store) Delete(tok *lsm.Token, pdid string) error {
	if err := s.check(tok, lsm.OpDelete, pdid); err != nil {
		return err
	}
	r, _, err := s.resolve(pdid)
	if err != nil {
		return err
	}
	sr := s.shardOf(r.subjectID)
	sr.lk.Lock()
	defer sr.lk.Unlock()
	f, err := s.recordInos(sr, r)
	if err != nil {
		return err
	}
	if err := s.removeRecordFiles(sr, r, f); err != nil {
		return err
	}
	// Shred keys so any residues (ciphertext) stay unreadable forever.
	if _, err := s.vault.Shred(pdid); err != nil &&
		!errors.Is(err, cryptoshred.ErrNoKey) && !errors.Is(err, cryptoshred.ErrKeyDestroyed) {
		return err
	}
	if _, err := s.vault.Shred(pdid + sensKeySuffix); err != nil &&
		!errors.Is(err, cryptoshred.ErrNoKey) && !errors.Is(err, cryptoshred.ErrKeyDestroyed) {
		return err
	}
	// Remove the archived copy too: Delete is physical removal, and a
	// stale archive entry would resurface in the listings.
	if err := s.coldForget(sr, r); err != nil {
		return err
	}
	s.stats.deletes.Add(1)
	return nil
}

// RawCiphertext returns the stored (encrypted) record bytes; together with
// the escrow record this is what a legal authority would receive.
func (s *Store) RawCiphertext(tok *lsm.Token, pdid string) ([]byte, error) {
	if err := s.check(tok, lsm.OpExport, pdid); err != nil {
		return nil, err
	}
	r, _, err := s.resolve(pdid)
	if err != nil {
		return nil, err
	}
	sr := s.shardOf(r.subjectID)
	sr.lk.RLock()
	defer sr.lk.RUnlock()
	f, err := s.recordInos(sr, r)
	if err != nil {
		return nil, err
	}
	return readAll(sr.fs, f.data)
}

// Subjects lists every subject with data in DBFS, sorted — the union of
// every instance's subject tree.
func (s *Store) Subjects(tok *lsm.Token) ([]string, error) {
	if err := s.check(tok, lsm.OpScan, "subjects"); err != nil {
		return nil, err
	}
	return s.subjectNames()
}

// subjectNames lists the subject trees of every instance, sorted. No shard
// lock: the inode FS returns a consistent child snapshot, and a scan
// concurrent with inserts is inherently a racy point-in-time view; callers
// that act on a subject take its shard lock then.
func (s *Store) subjectNames() ([]string, error) {
	var out []string
	for i, fs := range s.fss {
		ents, err := fs.Children(s.subjectRoots[i])
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			out = append(out, e.Name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// ListBySubject returns every live pdid belonging to subjectID, sorted.
// Erased records are not listed (see ListErased).
func (s *Store) ListBySubject(tok *lsm.Token, subjectID string) ([]string, error) {
	if err := s.check(tok, lsm.OpScan, "subject/"+subjectID); err != nil {
		return nil, err
	}
	sr := s.shardOf(subjectID)
	sr.lk.RLock()
	defer sr.lk.RUnlock()
	live, _, err := s.listSubjectLocked(sr, subjectID, false)
	return live, err
}

// ListErased lists subjectID's records with one walk of its trees: live
// holds exactly what ListBySubject returns, erased the pdids of its erased
// records, whose tombstones and ciphertext remain until their retention
// deletes them. Both are sorted. The callers that must see erased records —
// the retention sweep, the access report, the cluster's copy sync — read
// both.
func (s *Store) ListErased(tok *lsm.Token, subjectID string) (live, erased []string, err error) {
	if err := s.check(tok, lsm.OpScan, "subject/"+subjectID); err != nil {
		return nil, nil, err
	}
	sr := s.shardOf(subjectID)
	sr.lk.RLock()
	defer sr.lk.RUnlock()
	return s.listSubjectLocked(sr, subjectID, true)
}

// listSubjectLocked lists subjectID's records with one walk: live is the
// hot <n>.mem names plus the archived records no hot name shadows, erased
// the <n>.erased names (collected when withErased is set, or when an
// archive entry needs shadowing). Caller holds the subject's shard lock
// (either side).
func (s *Store) listSubjectLocked(sr shardRef, subjectID string, withErased bool) (live, erased []string, err error) {
	s.scanLocks[sr.idx].Add(1)
	cold := s.coldPDIDs(sr, subjectID)
	withErased = withErased || len(cold) != 0
	err = s.walkSubjectLocked(sr, subjectID, func(h hotRecord) {
		if !h.erased {
			live = append(live, h.typeName+"/"+subjectID+"/"+h.name)
		} else if withErased {
			erased = append(erased, h.typeName+"/"+subjectID+"/"+h.name)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	// Archived records are part of the namespace too (reads promote them
	// transparently). A hot name shadows its archive entry: the stale entry
	// of a promoted record, erased since or not.
	if len(cold) != 0 {
		hot := make(map[string]bool, len(live)+len(erased))
		for _, p := range live {
			hot[p] = true
		}
		for _, p := range erased {
			hot[p] = true
		}
		for _, p := range cold {
			if !hot[p] {
				live = append(live, p)
			}
		}
	}
	sort.Strings(live)
	sort.Strings(erased)
	return live, erased, nil
}

// hotRecord is one record in a subject's type trees: its type, its record
// name, and its membrane's inode, linked as <n>.erased when erased is set
// and as <n>.mem before.
type hotRecord struct {
	typeName string
	name     string
	mem      inode.Ino
	erased   bool
}

// walkSubjectLocked is the one walk of a subject's type trees: it calls fn
// for every hot record, erased ones included, in tree order (sortHot gives
// type-name, then record-name order). A subject with no tree has no hot
// records. The listings, demotion and snapshots all walk this way. Caller
// holds the subject's shard lock (either side).
func (s *Store) walkSubjectLocked(sr shardRef, subjectID string, fn func(hotRecord)) error {
	subjIno, err := sr.fs.Lookup(sr.subjRoot, subjectID)
	if errors.Is(err, inode.ErrChildNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	typeTrees, err := sr.fs.Children(subjIno)
	if err != nil {
		return err
	}
	for _, tt := range typeTrees {
		recs, err := sr.fs.Children(tt.Ino)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if name, ok := strings.CutSuffix(r.Name, memSuffix); ok {
				fn(hotRecord{tt.Name, name, r.Ino, false})
			} else if name, ok := strings.CutSuffix(r.Name, erasedSuffix); ok {
				fn(hotRecord{tt.Name, name, r.Ino, true})
			}
		}
	}
	return nil
}

// sortHot orders hot records by type name, then record name.
func sortHot(hs []hotRecord) {
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].typeName != hs[j].typeName {
			return hs[i].typeName < hs[j].typeName
		}
		return hs[i].name < hs[j].name
	})
}

// ListByType returns every live pdid of a type across all subjects, sorted.
// It walks each instance's per-table subject links (the second major tree).
func (s *Store) ListByType(tok *lsm.Token, typeName string) ([]string, error) {
	if err := s.check(tok, lsm.OpScan, "type/"+typeName); err != nil {
		return nil, err
	}
	if _, err := s.typeFor(typeName); err != nil {
		return nil, err
	}
	// Cross-subject scan: like Subjects, a point-in-time view without shard
	// locks; per-record files are only read later under their shard lock.
	var out []string
	hot := make(map[string]bool) // every hot name, live or erased
	for i, fs := range s.fss {
		subs, err := fs.Lookup(s.tablesRoots[i], typeName)
		if errors.Is(err, inode.ErrChildNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		subjects, err := fs.Children(subs)
		if err != nil {
			return nil, err
		}
		for _, sj := range subjects {
			recs, err := fs.Children(sj.Ino)
			if err != nil {
				return nil, err
			}
			for _, r := range recs {
				if name, ok := strings.CutSuffix(r.Name, memSuffix); ok {
					pdid := typeName + "/" + sj.Name + "/" + name
					out = append(out, pdid)
					hot[pdid] = true
				} else if name, ok := strings.CutSuffix(r.Name, erasedSuffix); ok {
					hot[typeName+"/"+sj.Name+"/"+name] = true
				}
			}
		}
	}
	// Add this type's archived records that no hot name shadows.
	prefix := typeName + "/"
	for i := range s.cold.shards {
		cs := &s.cold.shards[i]
		cs.mu.Lock()
		for pdid := range cs.archived {
			if strings.HasPrefix(pdid, prefix) && !hot[pdid] {
				out = append(out, pdid)
			}
		}
		cs.mu.Unlock()
	}
	sort.Strings(out)
	return out, nil
}

// JournalStats aggregates the WAL counters across every filesystem
// instance, so experiments can report the achieved group-commit batching.
func (s *Store) JournalStats() wal.Stats {
	var out wal.Stats
	for _, fs := range s.fss {
		st := fs.JournalStats()
		out.TxnsCommitted += st.TxnsCommitted
		out.BlocksLogged += st.BlocksLogged
		out.TxnsReplayed += st.TxnsReplayed
		out.GroupCommits += st.GroupCommits
		if st.MaxGroupTxns > out.MaxGroupTxns {
			out.MaxGroupTxns = st.MaxGroupTxns
		}
	}
	return out
}
