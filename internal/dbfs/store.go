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
	// misroute every shard (shard mod N changes) — fails loudly instead.
	shardCfgName = "shardcfg"

	dataSuffix = ".data"
	sensSuffix = ".sens"
	memSuffix  = ".mem"

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
	// ColdDedupHits archive parts that content-addressed onto existing
	// chunks, SnapshotsTaken membrane snapshots captured. ColdRecords and
	// ColdBytesSaved are gauges snapshotted by Stats(): entries currently
	// archived, and the raw bytes those entries represent minus the
	// encoded archive bytes holding them (dedup + compression win; can go
	// negative for tiny archives, where container overhead dominates).
	Demotions      uint64
	Promotions     uint64
	ColdDedupHits  uint64
	SnapshotsTaken uint64
	ColdRecords    uint64
	ColdBytesSaved int64
}

// formatEntry is one row of the format tree: the session-loaded descriptor
// of how a type's record bytes are laid out (§3's "dedicated set of inodes
// ... accessed only once ... during a given live session").
type formatEntry struct {
	Field     string    `json:"field"`
	Type      FieldType `json:"type"`
	Sensitive bool      `json:"sensitive,omitempty"`
}

// DefaultShards sizes the subject-shard lock table when no explicit count
// is configured at Create. Subjects hash onto shards, so operations on
// distinct subjects almost never contend; the shard-collision sweep
// (TestShardBalanceSweep) picked 64 as the largest count keeping
// worst-shard skew near 1x at realistic subject populations.
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

// SubjectHash is the raw FNV-1a hash of a subject ID — a pure function of
// the ID, independent of any store's shard geometry. Cross-store placement
// (the cluster router's node choice) MUST derive from this full-entropy
// value, never from ShardOf: `hash % shards` discards all but log2(shards)
// bits and couples placement to the mount-time shard count, so a remount
// with a different Options.Shards would silently re-home subjects.
func SubjectHash(subjectID string) uint32 { return hashSubject(subjectID) }

// ShardOf reports the subject-shard index a subject ID hashes to under the
// DEFAULT geometry (DefaultShards). Stores mounted with a custom shard
// count route through the Store.ShardOf method instead; geometry-
// independent placement routes on SubjectHash.
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
// shard → metaMu → statsMu (never the reverse). Insert seals its record
// before taking any Store lock; reads, updates and erasures run their
// crypto under the subject's shard lock (blocking only that shard), because
// sealing/unsealing there must serialize with key shredding.
//
// Storage is shard-routed too: each subject shard maps to
// one of N inode filesystem instances (shard mod N), each with its own
// superblock, allocation bitmap and journal — typically one
// blockdev.Partition of the PD disk per instance. Shard-disjoint inserts
// therefore never contend on a filesystem lock or a journal, which removes
// the storage-layer serialization point left after subject sharding. Every
// instance carries its own "subjects" and "tables" trees; cross-subject
// metadata (schema defs, formats, seq counters) lives only on instance 0.
type Store struct {
	fss   []*inode.FS
	guard *lsm.Guard
	vault *cryptoshred.Vault
	clock simclock.Clock

	// metaMu guards the type-level maps and the persisted seq files.
	metaMu  sync.RWMutex
	schemas map[string]*Schema
	formats map[string][]formatEntry
	seqs    map[string]uint64
	// seqHighs is each type's durably reserved id watermark: ids up to
	// seqHighs[t] may be handed out without touching the disk. See
	// nextSeq.
	seqHighs map[string]uint64

	// nshards is the subject-shard count, fixed at Create and persisted in
	// the per-instance shard config (remounts validate it); shards is the
	// lock table it sizes. See shardOf.
	nshards uint32
	shards  []sync.RWMutex

	// mcache memoizes decoded membranes per record (see cache.go); a nil
	// pointer means caching is disabled. Entries are maintained under the
	// shard locks, so readers can never observe a membrane older than the
	// last committed mutation; the pointer itself is atomic so the cache
	// can be resized (in place, entries preserved) or enabled/disabled at
	// runtime — a swapped-in cache starts empty and refills under the
	// shard locks, which keeps the coherence argument intact. mcacheCap
	// remembers the configured capacity (-1 disabled) for snapshots.
	mcache    atomic.Pointer[membraneCache]
	mcacheCap atomic.Int64

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
	scanLocks []atomic.Uint64

	// cold is the cold-tier state: idle threshold, per-shard archive index
	// and touch clocks, and the per-instance cold/snapshot tree roots. See
	// cold.go; its per-shard mutex is a leaf under the shard lock (lock
	// order shard → cold.mu → statsMu).
	cold coldState

	statsMu sync.Mutex
	stats   Stats

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
}

// NumShards reports the store's subject-shard count — the size callers
// with shard-congruent state (the rights due-index) size themselves to.
func (s *Store) NumShards() int { return int(s.nshards) }

// ShardOf reports the subject-shard index a subject ID hashes to under
// this store's geometry. Stable across remounts (the shard count is
// persisted and validated at Open).
func (s *Store) ShardOf(subjectID string) uint32 {
	return hashSubject(subjectID) % s.nshards
}

// shardAt resolves a shard index to its lock and filesystem instance.
func (s *Store) shardAt(shard uint32) shardRef {
	fi := int(shard) % len(s.fss)
	return shardRef{
		idx:        shard,
		lk:         &s.shards[shard],
		fs:         s.fss[fi],
		subjRoot:   s.subjectRoots[fi],
		tablesRoot: s.tablesRoots[fi],
		coldRoot:   s.cold.roots[fi],
	}
}

// shardOf maps a subject ID onto its lock shard and filesystem instance.
func (s *Store) shardOf(subjectID string) shardRef {
	return s.shardAt(s.ShardOf(subjectID))
}

// metaFS is the instance holding cross-subject metadata.
func (s *Store) metaFS() *inode.FS { return s.fss[0] }

// FSInstances reports how many inode filesystem instances back the store.
func (s *Store) FSInstances() int { return len(s.fss) }

// bumpStats applies a counter mutation under the stats lock.
func (s *Store) bumpStats(f func(*Stats)) {
	s.statsMu.Lock()
	f(&s.stats)
	s.statsMu.Unlock()
}

// Create formats the DBFS trees across freshly formatted inode filesystem
// instances with the default shard count. See CreateShards.
func Create(fss []*inode.FS, guard *lsm.Guard, vault *cryptoshred.Vault, clock simclock.Clock) (*Store, error) {
	return CreateShards(fss, guard, vault, clock, DefaultShards)
}

// CreateShards formats the DBFS trees across freshly formatted inode
// filesystem instances with an explicit subject-shard count (0 means
// DefaultShards). Every instance gets its own "subjects" and "tables"
// major trees; instance 0 additionally holds the schema and format trees.
// The subject-shard → instance routing is shard mod len(fss), so the shard
// and instance counts are persisted per instance and must stay the same
// across remounts of the same devices (Open validates both). shards must
// be at least len(fss), or trailing instances could never receive traffic.
func CreateShards(fss []*inode.FS, guard *lsm.Guard, vault *cryptoshred.Vault, clock simclock.Clock, shards int) (*Store, error) {
	if len(fss) == 0 {
		return nil, fmt.Errorf("dbfs: need at least one filesystem instance")
	}
	if shards == 0 {
		shards = DefaultShards
	}
	if shards < len(fss) {
		return nil, fmt.Errorf("dbfs: shard count %d below instance count %d — instances would be unreachable", shards, len(fss))
	}
	if clock == nil {
		clock = simclock.Real{}
	}
	s := newStore(fss, guard, vault, clock, uint32(shards))
	for i, fs := range fss {
		var cfg [24]byte
		binary.LittleEndian.PutUint64(cfg[0:], uint64(len(fss)))
		binary.LittleEndian.PutUint64(cfg[8:], uint64(i))
		binary.LittleEndian.PutUint64(cfg[16:], uint64(shards))
		trees := []struct {
			name string
			dst  *inode.Ino
		}{
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
			_, err := createFile(op, inode.RootIno, shardCfgName, "shard-config", cfg[:])
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("dbfs: format instance %d: %w", i, err)
		}
	}
	if err := s.ensureColdRoots(); err != nil {
		return nil, err
	}
	return s, nil
}

// newStore builds the in-memory Store shell for nshards subject shards.
func newStore(fss []*inode.FS, guard *lsm.Guard, vault *cryptoshred.Vault, clock simclock.Clock, nshards uint32) *Store {
	s := &Store{
		fss:          fss,
		guard:        guard,
		vault:        vault,
		clock:        clock,
		schemas:      make(map[string]*Schema),
		formats:      make(map[string][]formatEntry),
		seqs:         make(map[string]uint64),
		seqHighs:     make(map[string]uint64),
		subjectRoots: make([]inode.Ino, len(fss)),
		tablesRoots:  make([]inode.Ino, len(fss)),
		nshards:      nshards,
		shards:       make([]sync.RWMutex, nshards),
		scanLocks:    make([]atomic.Uint64, nshards),
	}
	s.cold.shards = make([]coldShard, nshards)
	s.mcache.Store(newMembraneCache(0, int(nshards)))
	s.mcacheCap.Store(DefaultMembraneCacheCap)
	return s
}

// readShardCfg loads one instance's persisted shard config. The current
// format is 24 bytes (instance count, instance index, subject-shard
// count); 16-byte configs written before the shard count was persisted are
// accepted and mean DefaultShards.
func readShardCfg(fs *inode.FS) (count, idx, shards uint64, err error) {
	cfgIno, err := fs.Lookup(inode.RootIno, shardCfgName)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("shard config: %w", err)
	}
	raw, err := readAll(fs, cfgIno)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad shard config: %w", err)
	}
	switch len(raw) {
	case 16:
		shards = DefaultShards
	case 24:
		shards = binary.LittleEndian.Uint64(raw[16:])
		if shards == 0 {
			return 0, 0, 0, fmt.Errorf("bad shard config: zero shard count")
		}
	default:
		return 0, 0, 0, fmt.Errorf("bad shard config: %d bytes, want 16 or 24", len(raw))
	}
	return binary.LittleEndian.Uint64(raw[0:]), binary.LittleEndian.Uint64(raw[8:]), shards, nil
}

// Open mounts an existing DBFS from its mounted instances (same order and
// count as at Create): it reads the persisted shard geometry (instance
// count and subject-shard count — both fixed at Create, both validated on
// every instance so remounts can never silently re-route subjects),
// resolves the major trees on every instance, then loads every schema and
// the format descriptors from instance 0 (the once-per-session read).
func Open(fss []*inode.FS, guard *lsm.Guard, vault *cryptoshred.Vault, clock simclock.Clock) (*Store, error) {
	if len(fss) == 0 {
		return nil, fmt.Errorf("dbfs: need at least one filesystem instance")
	}
	if clock == nil {
		clock = simclock.Real{}
	}
	_, _, nsh, err := readShardCfg(fss[0])
	if err != nil {
		return nil, fmt.Errorf("dbfs: open instance 0: %w", err)
	}
	s := newStore(fss, guard, vault, clock, uint32(nsh))
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
		count, idx, sh, err := readShardCfg(fs)
		if err != nil {
			return nil, fmt.Errorf("dbfs: open instance %d: %w", i, err)
		}
		if count != uint64(len(fss)) || idx != uint64(i) {
			return nil, fmt.Errorf("dbfs: open instance %d: shard config says instance %d of %d, got %d of %d — shard routing would change",
				i, idx, count, i, len(fss))
		}
		if sh != nsh {
			return nil, fmt.Errorf("dbfs: open instance %d: shard config says %d subject shards, instance 0 says %d — shard routing would change",
				i, sh, nsh)
		}
	}
	meta := s.metaFS()
	tables, err := meta.Children(s.schemaRoot)
	if err != nil {
		return nil, fmt.Errorf("dbfs: open: list tables: %w", err)
	}
	for _, tb := range tables {
		defIno, err := meta.Lookup(tb.Ino, defFileName)
		if err != nil {
			return nil, fmt.Errorf("dbfs: open table %q: %w", tb.Name, err)
		}
		raw, err := readAll(meta, defIno)
		if err != nil {
			return nil, fmt.Errorf("dbfs: open table %q: %w", tb.Name, err)
		}
		sch, err := DecodeSchema(raw)
		if err != nil {
			return nil, fmt.Errorf("dbfs: open table %q: %w", tb.Name, err)
		}
		s.schemas[sch.Name] = sch
		seqIno, err := meta.Lookup(tb.Ino, seqFileName)
		if err != nil {
			return nil, fmt.Errorf("dbfs: open table %q seq: %w", tb.Name, err)
		}
		seqRaw, err := readAll(meta, seqIno)
		if err != nil || len(seqRaw) != 8 {
			return nil, fmt.Errorf("dbfs: open table %q seq: %w", tb.Name, err)
		}
		// The persisted value is the reserved watermark (see nextSeq):
		// resuming from it skips unused leased ids but never reuses one.
		s.seqs[sch.Name] = binary.LittleEndian.Uint64(seqRaw)
		s.seqHighs[sch.Name] = s.seqs[sch.Name]
	}
	// Format descriptors: the single per-session read of the format tree.
	fmts, err := meta.Children(s.formatRoot)
	if err != nil {
		return nil, fmt.Errorf("dbfs: open formats: %w", err)
	}
	for _, fe := range fmts {
		raw, err := readAll(meta, fe.Ino)
		if err != nil {
			return nil, fmt.Errorf("dbfs: open format %q: %w", fe.Name, err)
		}
		var entries []formatEntry
		if err := json.Unmarshal(raw, &entries); err != nil {
			return nil, fmt.Errorf("dbfs: decode format %q: %w", fe.Name, err)
		}
		s.formats[fe.Name] = entries
	}
	// Cold tier: resolve (or, on volumes formatted before the tier
	// existed, create) the cold and snapshot trees, then rebuild the
	// in-memory archive index — the tier's once-per-session read.
	if err := s.ensureColdRoots(); err != nil {
		return nil, err
	}
	if err := s.rebuildColdIndex(); err != nil {
		return nil, err
	}
	return s, nil
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

// removeRecordFiles is the scope step that unlinks and frees one record's
// files; an inode number of 0 means the record has no such file.
func removeRecordFiles(op *inode.Op, tree inode.Ino, recName string, data, sens, mem inode.Ino) error {
	for _, f := range []struct {
		suffix string
		ino    inode.Ino
	}{{memSuffix, mem}, {sensSuffix, sens}, {dataSuffix, data}} {
		if f.ino == 0 {
			continue
		}
		if err := removeFile(op, tree, recName+f.suffix, f.ino); err != nil {
			return err
		}
	}
	return nil
}

// check mediates an access through the LSM guard.
func (s *Store) check(tok *lsm.Token, op lsm.Operation, id string) error {
	return s.guard.Check(tok, lsm.CapDBFS, op, lsm.ObjectRef{Class: "dbfs", ID: id})
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.statsMu.Lock()
	st := s.stats
	s.statsMu.Unlock()
	if mc := s.mcache.Load(); mc != nil {
		st.CacheHits, st.CacheMisses, st.CacheEvictions = mc.counters()
	}
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
// rewrites alike. Only membranes with a TTL are reported. fn runs under
// the subject's shard write lock: it must be fast and must not call back
// into the store. Register before concurrent use; the rights engine wires
// its retention due-index here at boot.
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
	out := make([]uint64, len(s.scanLocks))
	for i := range s.scanLocks {
		out[i] = s.scanLocks[i].Load()
	}
	return out
}

// ConfigureMembraneCache resizes (or disables) the decoded-membrane cache:
// capacity 0 restores the default bound (DefaultMembraneCacheCap), a
// negative capacity disables caching entirely — the ablation configuration
// benchmarks compare against. Safe at runtime: resizing an enabled cache
// preserves its entries (per-shard cap adjustment with LRU overflow
// eviction), while disable/enable transitions swap the cache pointer —
// a freshly enabled cache starts empty and refills under the shard locks.
//
// For a store owned by a core.System, System.ApplyTuning
// (core.Tuning.MembraneCache) is the door: it calls this setter.
func (s *Store) ConfigureMembraneCache(capacity int) {
	if capacity < 0 {
		s.mcacheCap.Store(-1)
		s.mcache.Store(nil)
		return
	}
	eff := capacity
	if eff == 0 {
		eff = DefaultMembraneCacheCap
	}
	s.mcacheCap.Store(int64(eff))
	if mc := s.mcache.Load(); mc != nil {
		mc.resize(eff)
		return
	}
	s.mcache.Store(newMembraneCache(eff, int(s.nshards)))
}

// MembraneCacheCap reports the configured membrane-cache capacity:
// -1 when disabled, otherwise the effective store-wide entry bound.
func (s *Store) MembraneCacheCap() int { return int(s.mcacheCap.Load()) }

// schemaFor resolves a type's schema under the meta lock. Schemas are
// immutable once created, so the returned pointer is safe to use lock-free.
func (s *Store) schemaFor(typeName string) (*Schema, error) {
	s.metaMu.RLock()
	defer s.metaMu.RUnlock()
	sch, ok := s.schemas[typeName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoType, typeName)
	}
	return sch, nil
}

// CreateType declares a new PD type: it validates the schema, creates the
// table inodes in the schema tree, and records the format descriptor.
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
	if _, ok := s.schemas[sch.Name]; ok {
		return fmt.Errorf("%w: %q", ErrTypeExists, sch.Name)
	}
	raw, err := EncodeSchema(sch)
	if err != nil {
		return err
	}
	entries := make([]formatEntry, 0, len(sch.Fields))
	for _, f := range sch.Fields {
		entries = append(entries, formatEntry{Field: f.Name, Type: f.Type, Sensitive: f.Sensitive})
	}
	fraw, err := json.Marshal(entries)
	if err != nil {
		return fmt.Errorf("dbfs: encode format %q: %w", sch.Name, err)
	}
	// Second major tree, per instance: tables/<type> links every subject's
	// record tree of this type on that instance, for fast per-table
	// enumeration without crossing filesystems.
	subsTag := "table-subjects:" + clipTag(sch.Name)
	// Everything the type needs on the metadata instance — table tree, def,
	// seq, subject list, format descriptor — is one transaction.
	err = s.metaFS().Do([]inode.Ino{s.schemaRoot, s.formatRoot, s.tablesRoots[0]}, func(op *inode.Op) error {
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
		if _, err := makeTree(op, s.tablesRoots[0], sch.Name, subsTag); err != nil {
			return err
		}
		_, err = createFile(op, s.formatRoot, sch.Name, "format:"+sch.Name, fraw)
		return err
	})
	if err != nil {
		return fmt.Errorf("dbfs: create type %q: %w", sch.Name, err)
	}
	for i := 1; i < len(s.fss); i++ {
		err := s.fss[i].Do([]inode.Ino{s.tablesRoots[i]}, func(op *inode.Op) error {
			_, err := makeTree(op, s.tablesRoots[i], sch.Name, subsTag)
			return err
		})
		if err != nil {
			return fmt.Errorf("dbfs: create type %q subjects on instance %d: %w", sch.Name, i, err)
		}
	}
	s.schemas[sch.Name] = sch
	s.formats[sch.Name] = entries
	s.seqs[sch.Name] = 0
	s.seqHighs[sch.Name] = 0
	s.bumpStats(func(st *Stats) { st.TypesCreated++ })
	return nil
}

// Types lists the declared type names, sorted.
func (s *Store) Types(tok *lsm.Token) ([]string, error) {
	if err := s.check(tok, lsm.OpScan, "types"); err != nil {
		return nil, err
	}
	s.metaMu.RLock()
	defer s.metaMu.RUnlock()
	out := make([]string, 0, len(s.schemas))
	for name := range s.schemas {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// SchemaOf returns the schema for a type.
func (s *Store) SchemaOf(tok *lsm.Token, name string) (*Schema, error) {
	if err := s.check(tok, lsm.OpRead, "type/"+name); err != nil {
		return nil, err
	}
	sch, err := s.schemaFor(name)
	if err != nil {
		return nil, err
	}
	cp := *sch
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

// resolve parses a pdid and resolves its type's schema — the one metaMu
// round-trip each record operation pays. Schemas are immutable once
// created, so the pointer stays valid outside the lock.
func (s *Store) resolve(pdid string) (ref, *Schema, error) {
	r, err := parseRef(pdid)
	if err != nil {
		return ref{}, nil, err
	}
	sch, err := s.schemaFor(r.typeName)
	if err != nil {
		return ref{}, nil, err
	}
	return r, sch, nil
}

// subjectTypeTree resolves (creating if create is set) the tree inode
// holding subject's records of the given type on the subject's filesystem
// instance, maintaining both major trees: subjects/<subj>/<type> and
// tables/<type>/<subj>. Caller holds the subject's shard lock (write-side
// when create is set). First touch — the subject tree if the subject is new,
// its record tree, and the link from the instance's table subject list — is
// one operation scope over the shared parents it mutates, so a subject is
// never left in one major tree but not the other.
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
	if err != nil {
		return 0, err
	}
	declared := []inode.Ino{subs, subjIno}
	if newSubject {
		declared[1] = sr.subjRoot
	}
	var tIno inode.Ino
	err = sr.fs.Do(declared, func(op *inode.Op) (err error) {
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
	sch, err := s.schemaFor(typeName)
	if err != nil {
		return "", err
	}
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
	plainPart, sensPart := partsOf(sch)
	plainBytes, err := encodeRecordPart(sch, rec, plainPart)
	if err != nil {
		return "", err
	}
	sealed, err := s.vault.Seal(pdid, plainBytes)
	if err != nil {
		return fail(fmt.Errorf("seal: %w", err))
	}
	var sealedSens []byte
	if len(sensPart) > 0 {
		sensBytes, err := encodeRecordPart(sch, rec, sensPart)
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
	if mc := s.mcache.Load(); mc != nil {
		// m is private to this insert (cloned or schema-built above), so the
		// write-through costs one clone and first reads decode nothing.
		mc.writeThrough(sr.idx, pdid, m)
	}
	s.coldTouch(sr, pdid)
	s.noteExpiry(m)
	s.bumpStats(func(st *Stats) { st.Inserts++ })
	return pdid, nil
}

// recordInos resolves the inode numbers of a record's files on its shard's
// instance. Caller holds the subject's shard lock and has already validated
// the type (resolve). The sens inode is 0 when the type has no sensitive
// part.
func (s *Store) recordInos(sr shardRef, r ref) (tree inode.Ino, data, sens, mem inode.Ino, err error) {
	tree, err = s.subjectTypeTree(sr, r.typeName, r.subjectID, false)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	recName := strconv.FormatUint(r.recNo, 10)
	data, err = sr.fs.Lookup(tree, recName+dataSuffix)
	if errors.Is(err, inode.ErrChildNotFound) {
		// Not hot — the record may live in its subject's cold archive.
		// Promote it back and retry: callers see one namespace, the first
		// read of a demoted record just pays the rematerialization.
		promoted, perr := s.promoteIfCold(sr, r, tree)
		if perr != nil {
			return 0, 0, 0, 0, perr
		}
		if !promoted {
			return 0, 0, 0, 0, fmt.Errorf("%w: %s", ErrNoRecord, r.pdid)
		}
		data, err = sr.fs.Lookup(tree, recName+dataSuffix)
	}
	if err != nil {
		return 0, 0, 0, 0, err
	}
	// A record's files are linked by one transaction (Insert, promotion), so
	// a visible data file proves the membrane and sens part are visible too.
	mem, err = sr.fs.Lookup(tree, recName+memSuffix)
	if errors.Is(err, inode.ErrChildNotFound) {
		return 0, 0, 0, 0, fmt.Errorf("%w: %s", ErrNoMembrane, r.pdid)
	}
	if err != nil {
		return 0, 0, 0, 0, err
	}
	sens, err = sr.fs.Lookup(tree, recName+sensSuffix)
	if errors.Is(err, inode.ErrChildNotFound) {
		sens = 0
	} else if err != nil {
		return 0, 0, 0, 0, err
	}
	return tree, data, sens, mem, nil
}

// GetMembrane loads a record's membrane (the DED's ded_load_membrane step).
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
// concurrently, so the filled value is the freshest stored state.
func (s *Store) getMembraneLocked(sr shardRef, r ref) (*membrane.Membrane, error) {
	if mc := s.mcache.Load(); mc != nil {
		if m := mc.get(sr.idx, r.pdid); m != nil {
			s.coldTouch(sr, r.pdid)
			s.bumpStats(func(st *Stats) { st.MembraneReads++ })
			return m, nil
		}
	}
	_, _, _, memIno, err := s.recordInos(sr, r)
	if err != nil {
		return nil, err
	}
	raw, err := readAll(sr.fs, memIno)
	if err != nil {
		return nil, fmt.Errorf("dbfs: read membrane %s: %w", r.pdid, err)
	}
	m, err := membrane.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("dbfs: membrane %s: %w", r.pdid, err)
	}
	if mc := s.mcache.Load(); mc != nil {
		mc.fill(sr.idx, r.pdid, m)
	}
	s.coldTouch(sr, r.pdid)
	s.bumpStats(func(st *Stats) { st.MembraneReads++ })
	return m, nil
}

// GetMembranes loads many membranes in one pass, grouping the pdids by
// subject shard so each shard lock is taken once per batch instead of once
// per record (the DED's ded_load_membrane stage and the rights engine fetch
// whole candidate lists at a time). Results keep input order; the first
// failing pdid aborts the batch.
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
		shard := s.ShardOf(r.subjectID)
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
// see). It returns the membrane as persisted.
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
	m, err := s.getMembraneLocked(sr, r)
	if err != nil {
		return nil, err
	}
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

// PutMembrane persists an updated membrane (consent changes, erasure marks,
// restriction flags). It writes the caller's snapshot as-is — concurrent
// writers should prefer MutateMembrane, which read-modify-writes the stored
// state atomically.
func (s *Store) PutMembrane(tok *lsm.Token, m *membrane.Membrane) error {
	if err := s.check(tok, lsm.OpWrite, m.PDID+memSuffix); err != nil {
		return err
	}
	if err := m.Validate(); err != nil {
		return err
	}
	r, _, err := s.resolve(m.PDID)
	if err != nil {
		return err
	}
	sr := s.shardOf(r.subjectID)
	sr.lk.Lock()
	defer sr.lk.Unlock()
	return s.putMembraneLocked(sr, r, m)
}

// putMembraneLocked persists a membrane and writes the decoded value through
// the cache; caller holds the subject's shard write lock.
func (s *Store) putMembraneLocked(sr shardRef, r ref, m *membrane.Membrane) error {
	_, _, _, memIno, err := s.recordInos(sr, r)
	if err != nil {
		return err
	}
	raw, err := m.Encode()
	if err != nil {
		return err
	}
	// Replace the contents in place, as one transaction: the stored bytes
	// are the old membrane or the new one, never a mix. A failure that
	// surfaces after the enqueue (the journal refused the commit group) can
	// still leave memory ahead of the disk, so the cache entry is
	// invalidated on any error and the next read surfaces the stored state.
	err = sr.fs.Do([]inode.Ino{memIno}, func(op *inode.Op) error { return op.Replace(memIno, raw) })
	if err != nil {
		s.cacheInvalidate(sr, r.pdid)
		return err
	}
	if mc := s.mcache.Load(); mc != nil {
		mc.writeThrough(sr.idx, r.pdid, m)
	}
	s.coldTouch(sr, r.pdid)
	s.noteExpiry(m)
	s.bumpStats(func(st *Stats) { st.MembraneWrites++ })
	return nil
}

// cacheInvalidate bumps a record's cache version and drops its entry; caller
// holds the subject's shard write lock.
func (s *Store) cacheInvalidate(sr shardRef, pdid string) {
	if mc := s.mcache.Load(); mc != nil {
		mc.invalidate(sr.idx, pdid)
	}
}

// GetRecord loads and decrypts a record's fields (the DED's ded_load_data
// step). The caller is expected to have passed the membrane filter first;
// DBFS itself only enforces the capability check.
func (s *Store) GetRecord(tok *lsm.Token, pdid string) (Record, error) {
	if err := s.check(tok, lsm.OpRead, pdid); err != nil {
		return nil, err
	}
	r, sch, err := s.resolve(pdid)
	if err != nil {
		return nil, err
	}
	sr := s.shardOf(r.subjectID)
	sr.lk.RLock()
	defer sr.lk.RUnlock()
	return s.getRecordLocked(sr, r, sch)
}

// getRecordLocked loads and decrypts a record; caller holds the subject's
// shard lock (either side) and has resolved the schema.
func (s *Store) getRecordLocked(sr shardRef, r ref, sch *Schema) (Record, error) {
	_, dataIno, sensIno, _, err := s.recordInos(sr, r)
	if err != nil {
		return nil, err
	}
	plainPart, sensPart := partsOf(sch)
	sealed, err := readAll(sr.fs, dataIno)
	if err != nil {
		return nil, fmt.Errorf("dbfs: read %s: %w", r.pdid, err)
	}
	plainBytes, err := s.vault.Open(r.pdid, sealed)
	if err != nil {
		return nil, fmt.Errorf("dbfs: unseal %s: %w", r.pdid, err)
	}
	rec, err := decodeRecordPart(sch, plainBytes, plainPart)
	if err != nil {
		return nil, err
	}
	if sensIno != 0 && len(sensPart) > 0 {
		sealedSens, err := readAll(sr.fs, sensIno)
		if err != nil {
			return nil, fmt.Errorf("dbfs: read sensitive %s: %w", r.pdid, err)
		}
		sensBytes, err := s.vault.Open(r.pdid+sensKeySuffix, sealedSens)
		if err != nil {
			return nil, fmt.Errorf("dbfs: unseal sensitive %s: %w", r.pdid, err)
		}
		sensRec, err := decodeRecordPart(sch, sensBytes, sensPart)
		if err != nil {
			return nil, err
		}
		for k, v := range sensRec {
			rec[k] = v
		}
	}
	s.coldTouch(sr, r.pdid)
	s.bumpStats(func(st *Stats) { st.DataReads++ })
	return rec, nil
}

// Update overwrites the stored fields of pdid with rec (a full replacement
// of both parts).
func (s *Store) Update(tok *lsm.Token, pdid string, rec Record) error {
	if err := s.check(tok, lsm.OpWrite, pdid); err != nil {
		return err
	}
	r, sch, err := s.resolve(pdid)
	if err != nil {
		return err
	}
	if err := validateRecord(sch, rec); err != nil {
		return err
	}
	// Encode outside the shard lock, but seal INSIDE it: sealing must
	// serialize with a concurrent Erase's key shredding, so an update of
	// an already-erased record fails with ErrKeyDestroyed instead of
	// silently re-writing ciphertext under an escrowed key. The record is
	// resolved before sealing so a nonexistent pdid never mints keys.
	plainPart, sensPart := partsOf(sch)
	plainBytes, err := encodeRecordPart(sch, rec, plainPart)
	if err != nil {
		return err
	}
	var sensBytes []byte
	if len(sensPart) > 0 {
		if sensBytes, err = encodeRecordPart(sch, rec, sensPart); err != nil {
			return err
		}
	}
	sr := s.shardOf(r.subjectID)
	sr.lk.Lock()
	defer sr.lk.Unlock()
	_, dataIno, sensIno, _, err := s.recordInos(sr, r)
	if err != nil {
		return err
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
	declared := []inode.Ino{dataIno}
	withSens := sensIno != 0 && sealedSens != nil
	if withSens {
		declared = append(declared, sensIno)
	}
	err = sr.fs.Do(declared, func(op *inode.Op) error {
		if err := op.Replace(dataIno, sealed); err != nil || !withSens {
			return err
		}
		return op.Replace(sensIno, sealedSens)
	})
	if err != nil {
		return err
	}
	// The membrane bytes are untouched, but the record moved: bump its
	// cache version so any cached membrane re-validates against disk.
	s.cacheInvalidate(sr, pdid)
	s.coldTouch(sr, pdid)
	s.bumpStats(func(st *Stats) { st.Updates++ })
	return nil
}

// Erase implements the crypto-erasure step of the right to be forgotten:
// the record's data keys are shredded with escrow to the authority, and its
// membrane is tombstoned (Erased + EscrowRef). The ciphertext remains on
// disk, readable only by the authority.
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
	m, err := s.getMembraneLocked(sr, r)
	if err != nil {
		return "", err
	}
	if m.Erased {
		return m.EscrowRef, nil // idempotent
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
	m.Erased = true
	m.EscrowRef = rec.Ref
	m.Version++
	if err := s.putMembraneLocked(sr, r, m); err != nil {
		return "", err
	}
	s.bumpStats(func(st *Stats) { st.Erasures++ })
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
	tree, dataIno, sensIno, memIno, err := s.recordInos(sr, r)
	if err != nil {
		return err
	}
	// One commit point: the three unlinks and frees are one transaction, so
	// the lock-free listings (and a crash) see the whole record or none of
	// it — never a membrane whose data is already gone.
	declared := []inode.Ino{tree, dataIno, memIno}
	if sensIno != 0 {
		declared = append(declared, sensIno)
	}
	err = sr.fs.Do(declared, func(op *inode.Op) error {
		return removeRecordFiles(op, tree, strconv.FormatUint(r.recNo, 10), dataIno, sensIno, memIno)
	})
	if err != nil {
		// A commit that failed after the enqueue leaves memory ahead of the
		// disk; the next read must surface the stored state.
		s.cacheInvalidate(sr, pdid)
		return err
	}
	// The record is gone; forget it in the cache so no read can resurrect
	// its membrane.
	if mc := s.mcache.Load(); mc != nil {
		mc.drop(sr.idx, pdid)
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
	s.bumpStats(func(st *Stats) { st.Deletes++ })
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
	_, dataIno, _, _, err := s.recordInos(sr, r)
	if err != nil {
		return nil, err
	}
	return readAll(sr.fs, dataIno)
}

// Subjects lists every subject with data in DBFS, sorted — the union of
// every instance's subject tree.
func (s *Store) Subjects(tok *lsm.Token) ([]string, error) {
	if err := s.check(tok, lsm.OpScan, "subjects"); err != nil {
		return nil, err
	}
	// No shard lock: the inode FS returns a consistent child snapshot, and
	// a scan concurrent with inserts is inherently a racy point-in-time view.
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

// ListBySubject returns every pdid belonging to subjectID, sorted.
func (s *Store) ListBySubject(tok *lsm.Token, subjectID string) ([]string, error) {
	if err := s.check(tok, lsm.OpScan, "subject/"+subjectID); err != nil {
		return nil, err
	}
	sr := s.shardOf(subjectID)
	sr.lk.RLock()
	defer sr.lk.RUnlock()
	s.scanLocks[sr.idx].Add(1)
	subjIno, err := sr.fs.Lookup(sr.subjRoot, subjectID)
	if errors.Is(err, inode.ErrChildNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	typeTrees, err := sr.fs.Children(subjIno)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, tt := range typeTrees {
		recs, err := sr.fs.Children(tt.Ino)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			if name, ok := strings.CutSuffix(r.Name, memSuffix); ok {
				out = append(out, tt.Name+"/"+subjectID+"/"+name)
			}
		}
	}
	// Archived records are part of the namespace too (reads promote them
	// transparently); a promoted record's stale archive entry is shadowed
	// by its hot copy.
	if cold := s.coldPDIDs(sr, subjectID); len(cold) != 0 {
		hot := make(map[string]bool, len(out))
		for _, p := range out {
			hot[p] = true
		}
		for _, p := range cold {
			if !hot[p] {
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// ListByType returns every pdid of a type across all subjects, sorted. It
// walks each instance's per-table subject links (the second major tree).
func (s *Store) ListByType(tok *lsm.Token, typeName string) ([]string, error) {
	if err := s.check(tok, lsm.OpScan, "type/"+typeName); err != nil {
		return nil, err
	}
	if _, err := s.schemaFor(typeName); err != nil {
		return nil, err
	}
	// Cross-subject scan: like Subjects, a point-in-time view without shard
	// locks; per-record files are only read later under their shard lock.
	var out []string
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
					out = append(out, typeName+"/"+sj.Name+"/"+name)
				}
			}
		}
	}
	// Add this type's archived records, hot copies shadowing stale entries.
	hot := make(map[string]bool, len(out))
	for _, p := range out {
		hot[p] = true
	}
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
