package dbfs

// The DBFS side of the cold tier (internal/coldtier): demotion of idle
// records into per-subject content-addressed compressed archives, an
// in-memory archive index for O(1) cold lookups, transparent promotion
// back to the hot tier on first read, and immutable membrane snapshots
// riding the same archive format.
//
// Layout: each filesystem instance carries two more root trees, "cold"
// (one archive file per subject, named by subject ID) and "snapshots"
// (one archive file per snapshot label). Records reach the archive as the
// exact ciphertext bytes the hot tier stored — crypto-shredding therefore
// covers archived copies for free — plus their plaintext membrane bytes
// (membranes are stored in clear in the hot tier too; tombstones must
// stay readable for idempotent erasure). Dedup is per subject archive by
// construction: chunks can never be shared across subjects, which keeps
// "shred the key, every copy dies" exact (see the coldtier package doc).
//
// Locking: each subject shard owns a coldShard whose mutex is a leaf
// under the shard lock — lock order shard → cold.mu → statsMu, and a
// cold section never takes metaMu. Demotion runs under the shard WRITE
// lock (it removes hot files); promotion runs under whichever side the
// triggering reader holds, serialized per shard by cold.mu (the shard
// read lock already excludes every mutator, and the inode layer is
// internally safe, so a promotion's hot-file writes cannot race a
// mutator). Each step — the archive rewrite, a record's hot files appearing
// (promotion), a record's hot files going away (demotion) — is one inode
// operation scope, hence one transaction. Crash ordering between the steps
// is archive-first on demote: a crash after the archive write leaves the
// record present in both tiers, and every read path prefers the hot copy,
// so nothing is lost and nothing stale is served; the next repack pass of
// the subject rewrites the archive entry.
//
// A promoted record's archive entry is retained (stale, never served —
// hot wins): if the record re-idles unchanged, re-demotion
// content-addresses onto the existing chunks and costs dedup hits instead
// of new bytes. Delete physically removes the archive entry; Erase leaves
// it, because erased ciphertext is exactly as dead as the hot tier's
// (ErrKeyDestroyed) and the tombstoned membrane overwrites the entry at
// its next demotion.

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coldtier"
	"repro/internal/cryptoshred"
	"repro/internal/inode"
	"repro/internal/lsm"
	"repro/internal/membrane"
)

// Cold-tier tree and part names.
const (
	coldRootName = "cold"
	snapRootName = "snapshots"

	coldPartData = "data"
	coldPartSens = "sens"
	coldPartMem  = "mem"
)

// Cold-tier sentinel errors.
var (
	// ErrSnapshotExists reports SnapshotMembranes over an existing label.
	ErrSnapshotExists = errors.New("dbfs: snapshot label already exists")
	// ErrNoSnapshot reports a read of an unknown snapshot label.
	ErrNoSnapshot = errors.New("dbfs: no such snapshot")
)

// coldState is the store's cold-tier state: the idle threshold (0 =
// demotion disabled; promotion and the index always work, so archives
// written under an earlier configuration stay readable) and the per-shard
// index slices.
type coldState struct {
	after  atomic.Int64 // idle threshold in nanoseconds
	shards []coldShard
	// roots / snapRoots are the per-instance cold and snapshot trees.
	roots     []inode.Ino
	snapRoots []inode.Ino
	// snapMu serializes snapshot creation (label uniqueness check +
	// write); taken without any shard lock held.
	snapMu sync.Mutex
}

// coldShard is one subject shard's slice of the cold tier. mu is a leaf
// lock under the shard lock (see the file comment).
type coldShard struct {
	mu sync.Mutex
	// touches is each hot record's last-touch instant. A hot record with
	// no entry (written before the tier was enabled, or before this
	// mount) counts as idle since forever and demotes on the next pass.
	touches map[string]time.Time
	// archived marks every pdid with an entry in its subject's archive
	// (including stale entries shadowed by a promoted hot copy).
	archived map[string]bool
	// saved is each subject's current archive saving: raw bytes of the
	// entries minus encoded archive file bytes.
	saved map[string]int64
}

// init allocates the shard's maps; caller holds mu or is single-threaded.
func (cs *coldShard) init() {
	if cs.touches == nil {
		cs.touches = make(map[string]time.Time)
		cs.archived = make(map[string]bool)
		cs.saved = make(map[string]int64)
	}
}

// ConfigureColdTier sets the cold tier's idle threshold: records untouched
// for this long are demoted into their subject's archive by the next
// repack pass. Zero (the default) disables demotion; promotion of
// already-archived records always works. Safe at runtime.
//
// For a store owned by a core.System, System.ApplyTuning
// (core.Tuning.ColdAfter) is the door: it calls this setter.
func (s *Store) ConfigureColdTier(after time.Duration) {
	if after < 0 {
		after = 0
	}
	s.cold.after.Store(int64(after))
}

// ColdAfter reports the configured idle threshold (0 = demotion disabled).
func (s *Store) ColdAfter() time.Duration {
	return time.Duration(s.cold.after.Load())
}

// coldTouch stamps a record's last-touch instant; caller holds the
// subject's shard lock (either side). Skipped while demotion is disabled
// so the disabled tier costs one atomic load per operation.
func (s *Store) coldTouch(sr shardRef, pdid string) {
	if s.ColdAfter() == 0 {
		return
	}
	cs := &s.cold.shards[sr.idx]
	cs.mu.Lock()
	cs.init()
	cs.touches[pdid] = s.clock.Now()
	cs.mu.Unlock()
}

// ensureColdRoots resolves (creating if absent) the per-instance cold and
// snapshot trees. Called at Create and at Open — Open creates them too so
// volumes formatted before the cold tier existed mount cleanly.
func (s *Store) ensureColdRoots() error {
	s.cold.roots = make([]inode.Ino, len(s.fss))
	s.cold.snapRoots = make([]inode.Ino, len(s.fss))
	for i, fs := range s.fss {
		for _, spec := range []struct {
			name string
			dst  *inode.Ino
		}{
			{coldRootName, &s.cold.roots[i]},
			{snapRootName, &s.cold.snapRoots[i]},
		} {
			ino, err := fs.Lookup(inode.RootIno, spec.name)
			if errors.Is(err, inode.ErrChildNotFound) {
				err = fs.Do([]inode.Ino{inode.RootIno}, func(op *inode.Op) (err error) {
					ino, err = makeTree(op, inode.RootIno, spec.name, spec.name+"-root")
					return err
				})
				if err != nil {
					return fmt.Errorf("dbfs: create %s tree on instance %d: %w", spec.name, i, err)
				}
			} else if err != nil {
				return fmt.Errorf("dbfs: resolve %s tree on instance %d: %w", spec.name, i, err)
			}
			*spec.dst = ino
		}
	}
	return nil
}

// rebuildColdIndex reloads the in-memory archive index from the cold trees
// (the cold tier's once-per-session read, like the schema load). Called at
// Open, before concurrent use.
func (s *Store) rebuildColdIndex() error {
	for i, fs := range s.fss {
		ents, err := fs.Children(s.cold.roots[i])
		if err != nil {
			return fmt.Errorf("dbfs: list cold tree on instance %d: %w", i, err)
		}
		for _, e := range ents {
			raw, err := readAll(fs, e.Ino)
			if err != nil {
				return fmt.Errorf("dbfs: read cold archive %q: %w", e.Name, err)
			}
			arch, err := coldtier.Decode(raw)
			if err != nil {
				return fmt.Errorf("dbfs: cold archive %q: %w", e.Name, err)
			}
			cs := &s.cold.shards[s.ShardOf(e.Name)]
			cs.mu.Lock()
			cs.init()
			for _, pdid := range arch.IDs() {
				cs.archived[pdid] = true
			}
			rawSz, _ := arch.Sizes()
			cs.saved[e.Name] = int64(rawSz) - int64(len(raw))
			cs.mu.Unlock()
		}
	}
	return nil
}

// coldArchiveLoad reads and decodes a subject's archive, or returns a
// fresh one if none exists yet. Caller holds the subject's shard lock and
// the shard's cold mutex.
func (s *Store) coldArchiveLoad(sr shardRef, subjectID string) (*coldtier.Archive, error) {
	ino, err := sr.fs.Lookup(sr.coldRoot, subjectID)
	if errors.Is(err, inode.ErrChildNotFound) {
		return coldtier.New(), nil
	}
	if err != nil {
		return nil, err
	}
	raw, err := readAll(sr.fs, ino)
	if err != nil {
		return nil, fmt.Errorf("dbfs: read cold archive %q: %w", subjectID, err)
	}
	arch, err := coldtier.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("dbfs: cold archive %q: %w", subjectID, err)
	}
	return arch, nil
}

// coldArchiveStore durably (re)writes a subject's archive — or removes the
// file when the archive emptied — and refreshes the subject's saved-bytes
// accounting. Caller holds the subject's shard lock and the shard's cold
// mutex.
func (s *Store) coldArchiveStore(sr shardRef, cs *coldShard, subjectID string, arch *coldtier.Archive) error {
	cs.init()
	if arch.Len() == 0 {
		ino, err := sr.fs.Lookup(sr.coldRoot, subjectID)
		if errors.Is(err, inode.ErrChildNotFound) {
			delete(cs.saved, subjectID)
			return nil
		}
		if err != nil {
			return err
		}
		err = sr.fs.Do([]inode.Ino{sr.coldRoot, ino}, func(op *inode.Op) error {
			return removeFile(op, sr.coldRoot, subjectID, ino)
		})
		if err != nil {
			return err
		}
		delete(cs.saved, subjectID)
		return nil
	}
	enc, err := arch.Encode()
	if err != nil {
		return err
	}
	if err := writeOrReplaceFile(sr.fs, sr.coldRoot, subjectID, "cold-archive", enc); err != nil {
		return err
	}
	rawSz, _ := arch.Sizes()
	cs.saved[subjectID] = int64(rawSz) - int64(len(enc))
	return nil
}

// writeOrReplaceFile makes contents the file parent/name in one
// transaction: a new file is created and linked, an existing one has its
// contents replaced in place.
func writeOrReplaceFile(fs *inode.FS, parent inode.Ino, name, tag string, contents []byte) error {
	ino, err := fs.Lookup(parent, name)
	create := errors.Is(err, inode.ErrChildNotFound)
	if err != nil && !create {
		return err
	}
	mutated := ino
	if create {
		mutated = parent
	}
	return fs.Do([]inode.Ino{mutated}, func(op *inode.Op) error {
		if create {
			_, err := createFile(op, parent, name, tag, contents)
			return err
		}
		return op.Replace(ino, contents)
	})
}

// promoteIfCold rematerializes an archived record in the hot tier —
// transparent promotion on first read. Caller holds the subject's shard
// lock (either side) and has resolved tree, the record's type tree. It
// reports whether the record was promoted (false: not archived, or
// already promoted by a racing reader). The archive entry is retained for
// re-demotion dedup; hot wins on every read path.
func (s *Store) promoteIfCold(sr shardRef, r ref, tree inode.Ino) (bool, error) {
	cs := &s.cold.shards[sr.idx]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.init()
	if !cs.archived[r.pdid] {
		return false, nil
	}
	recName := strconv.FormatUint(r.recNo, 10)
	// Recheck under the cold mutex: a racing reader may have promoted
	// this record while we waited.
	if _, err := sr.fs.Lookup(tree, recName+dataSuffix); err == nil {
		return true, nil
	} else if !errors.Is(err, inode.ErrChildNotFound) {
		return false, err
	}
	arch, err := s.coldArchiveLoad(sr, r.subjectID)
	if err != nil {
		return false, err
	}
	parts, ok := arch.Get(r.pdid)
	if !ok || parts == nil || parts[coldPartData] == nil || parts[coldPartMem] == nil {
		// Stale index entry (e.g. a crash between archive write and index
		// maintenance); drop it and let the caller report ErrNoRecord.
		delete(cs.archived, r.pdid)
		return false, nil
	}
	// The hot copy is one transaction, like Insert: racing readers and a
	// crash see the whole record hot or only its archive entry.
	err = sr.fs.Do([]inode.Ino{tree}, func(op *inode.Op) error {
		return createRecordFiles(op, tree, recName, parts[coldPartData], parts[coldPartSens], parts[coldPartMem])
	})
	if err != nil {
		return false, err
	}
	cs.touches[r.pdid] = s.clock.Now()
	s.bumpStats(func(st *Stats) { st.Promotions++ })
	return true, nil
}

// coldForget physically removes a record from the cold tier — Delete's
// counterpart for the archive copy. Caller holds the subject's shard write
// lock.
func (s *Store) coldForget(sr shardRef, r ref) error {
	cs := &s.cold.shards[sr.idx]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.init()
	delete(cs.touches, r.pdid)
	if !cs.archived[r.pdid] {
		return nil
	}
	arch, err := s.coldArchiveLoad(sr, r.subjectID)
	if err != nil {
		return err
	}
	arch.Remove(r.pdid)
	if err := s.coldArchiveStore(sr, cs, r.subjectID, arch); err != nil {
		return err
	}
	delete(cs.archived, r.pdid)
	return nil
}

// coldPDIDs returns the archived pdids of one subject (sorted), for the
// listings. Caller holds the subject's shard lock (either side).
func (s *Store) coldPDIDs(sr shardRef, subjectID string) []string {
	cs := &s.cold.shards[sr.idx]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var out []string
	for pdid := range cs.archived {
		if _, subj, _, err := SplitPDID(pdid); err == nil && subj == subjectID {
			out = append(out, pdid)
		}
	}
	sort.Strings(out)
	return out
}

// RepackCold runs one demotion pass at instant now: every record untouched
// for the configured ColdAfter threshold is moved out of the hot tier into
// its subject's archive (archive written durably before the hot files are
// removed). A zero threshold makes the pass a no-op. The pass scans shard
// by shard under the shard write locks, in deterministic order; the
// background coldtier.Repacker drives it, and experiments call it
// directly for deterministic single passes.
func (s *Store) RepackCold(tok *lsm.Token, now time.Time) (coldtier.PassStats, error) {
	var ps coldtier.PassStats
	if err := s.check(tok, lsm.OpWrite, "cold/repack"); err != nil {
		return ps, err
	}
	after := s.ColdAfter()
	if after == 0 {
		return ps, nil
	}
	cutoff := now.Add(-after)

	// Point-in-time subject listing, grouped by shard (same doctrine as
	// Subjects: the scan view is racy, the per-subject work is locked).
	byShard := make(map[uint32][]string)
	for i, fs := range s.fss {
		ents, err := fs.Children(s.subjectRoots[i])
		if err != nil {
			return ps, err
		}
		for _, e := range ents {
			sh := s.ShardOf(e.Name)
			byShard[sh] = append(byShard[sh], e.Name)
		}
	}
	shards := make([]uint32, 0, len(byShard))
	for sh := range byShard {
		shards = append(shards, sh)
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i] < shards[j] })

	for _, sh := range shards {
		subjects := byShard[sh]
		sort.Strings(subjects)
		sr := s.shardAt(sh)
		sr.lk.Lock()
		err := s.repackShardLocked(sr, subjects, cutoff, &ps)
		sr.lk.Unlock()
		if err != nil {
			return ps, err
		}
	}
	return ps, nil
}

// repackShardLocked demotes one shard's idle records; caller holds the
// shard write lock.
func (s *Store) repackShardLocked(sr shardRef, subjects []string, cutoff time.Time, ps *coldtier.PassStats) error {
	cs := &s.cold.shards[sr.idx]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.init()
	for _, subject := range subjects {
		subjIno, err := sr.fs.Lookup(sr.subjRoot, subject)
		if errors.Is(err, inode.ErrChildNotFound) {
			continue // raced a concurrent view; nothing hot here
		}
		if err != nil {
			return err
		}
		typeTrees, err := sr.fs.Children(subjIno)
		if err != nil {
			return err
		}
		sort.Slice(typeTrees, func(i, j int) bool { return typeTrees[i].Name < typeTrees[j].Name })
		type candidate struct {
			r    ref
			tree inode.Ino
		}
		var cands []candidate
		for _, tt := range typeTrees {
			recs, err := sr.fs.Children(tt.Ino)
			if err != nil {
				return err
			}
			names := make([]string, 0, len(recs))
			for _, rc := range recs {
				if name, ok := strings.CutSuffix(rc.Name, memSuffix); ok {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			for _, name := range names {
				recNo, err := strconv.ParseUint(name, 10, 64)
				if err != nil {
					continue // not a record file
				}
				pdid := PDID(tt.Name, subject, recNo)
				if t, ok := cs.touches[pdid]; ok && t.After(cutoff) {
					continue // still hot
				}
				cands = append(cands, candidate{
					r:    ref{pdid: pdid, typeName: tt.Name, subjectID: subject, recNo: recNo},
					tree: tt.Ino,
				})
			}
		}
		if len(cands) == 0 {
			continue
		}
		arch, err := s.coldArchiveLoad(sr, subject)
		if err != nil {
			return err
		}
		_, stored0 := arch.Sizes()
		demoted, dedup, raw := 0, 0, 0
		for _, c := range cands {
			parts, err := s.readRecordPartsLocked(sr, c.r, c.tree)
			if err != nil {
				return err
			}
			d, rw := arch.Put(c.r.pdid, parts)
			dedup += d
			raw += rw
			demoted++
		}
		// Archive lands durably BEFORE any hot file goes away: a crash
		// between the two leaves the record in both tiers, and hot wins.
		if err := s.coldArchiveStore(sr, cs, subject, arch); err != nil {
			return err
		}
		for _, c := range cands {
			if err := s.removeRecordFilesLocked(sr, c.r, c.tree); err != nil {
				return err
			}
			cs.archived[c.r.pdid] = true
			delete(cs.touches, c.r.pdid)
		}
		_, stored1 := arch.Sizes()
		ps.Demoted += demoted
		ps.DedupHits += dedup
		ps.RawBytes += int64(raw)
		ps.StoredBytes += int64(stored1 - stored0)
		ps.Subjects++
		s.bumpStats(func(st *Stats) {
			st.Demotions += uint64(demoted)
			st.ColdDedupHits += uint64(dedup)
		})
	}
	return nil
}

// readRecordPartsLocked reads a hot record's stored bytes (data and mem,
// sens when present) for archiving; caller holds the shard write lock.
func (s *Store) readRecordPartsLocked(sr shardRef, r ref, tree inode.Ino) (map[string][]byte, error) {
	recName := strconv.FormatUint(r.recNo, 10)
	parts := make(map[string][]byte, 3)
	for _, spec := range []struct {
		suffix, part string
		required     bool
	}{
		{dataSuffix, coldPartData, true},
		{sensSuffix, coldPartSens, false},
		{memSuffix, coldPartMem, true},
	} {
		ino, err := sr.fs.Lookup(tree, recName+spec.suffix)
		if errors.Is(err, inode.ErrChildNotFound) {
			if spec.required {
				return nil, fmt.Errorf("%w: %s", ErrNoRecord, r.pdid)
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		b, err := readAll(sr.fs, ino)
		if err != nil {
			return nil, fmt.Errorf("dbfs: read %s%s: %w", r.pdid, spec.suffix, err)
		}
		parts[spec.part] = b
	}
	return parts, nil
}

// removeRecordFilesLocked unlinks and frees a hot record's files in one
// transaction (listings see the whole record or none of it) and forgets its
// cached membrane. Caller holds the shard write lock.
func (s *Store) removeRecordFilesLocked(sr shardRef, r ref, tree inode.Ino) error {
	recName := strconv.FormatUint(r.recNo, 10)
	var inos [3]inode.Ino // data, sens, mem
	declared := []inode.Ino{tree}
	for i, suffix := range []string{dataSuffix, sensSuffix, memSuffix} {
		ino, err := sr.fs.Lookup(tree, recName+suffix)
		if errors.Is(err, inode.ErrChildNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		inos[i] = ino
		declared = append(declared, ino)
	}
	err := sr.fs.Do(declared, func(op *inode.Op) error {
		return removeRecordFiles(op, tree, recName, inos[0], inos[1], inos[2])
	})
	if err != nil {
		s.cacheInvalidate(sr, r.pdid)
		return err
	}
	if mc := s.mcache.Load(); mc != nil {
		mc.drop(sr.idx, r.pdid)
	}
	return nil
}

// ColdRaw returns a record's archived bytes — the ciphertext parts and
// membrane exactly as the archive holds them. Like RawCiphertext this is
// an export-capability operation: it is how audits verify that a shredded
// record's archived copy is undecodable. Fails ErrNoRecord when the
// record has no archive entry.
func (s *Store) ColdRaw(tok *lsm.Token, pdid string) (map[string][]byte, error) {
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
	cs := &s.cold.shards[sr.idx]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.init()
	if !cs.archived[r.pdid] {
		return nil, fmt.Errorf("%w: %s not archived", ErrNoRecord, pdid)
	}
	arch, err := s.coldArchiveLoad(sr, r.subjectID)
	if err != nil {
		return nil, err
	}
	parts, ok := arch.Get(r.pdid)
	if !ok {
		return nil, fmt.Errorf("%w: %s not archived", ErrNoRecord, pdid)
	}
	return parts, nil
}

// coldGauges sums the index gauges for Stats(): archived entry count and
// bytes saved across every subject archive.
func (s *Store) coldGauges() (records uint64, saved int64) {
	for i := range s.cold.shards {
		cs := &s.cold.shards[i]
		cs.mu.Lock()
		records += uint64(len(cs.archived))
		for _, v := range cs.saved {
			saved += v
		}
		cs.mu.Unlock()
	}
	return records, saved
}

// --- membrane snapshots ---

// SnapshotMembranes captures an immutable point-in-time image of every
// record's membrane — hot and archived alike — under the given label:
// "what did consent look like at tick T?". Each membrane is sealed under
// its record's OWN data key before archiving, so the snapshot inherits
// crypto-shredding exactly: erase the record and its snapshot entries
// decode to nothing (ErrKeyDestroyed), no resurrection path. Records
// already erased at snapshot time are stored as erased markers. It
// returns the number of records captured (markers included).
//
// The image is per-subject consistent (each subject is captured under its
// shard lock); a snapshot racing writes to other subjects captures each
// subject's state at the instant its shard was visited.
func (s *Store) SnapshotMembranes(tok *lsm.Token, label string) (int, error) {
	if err := s.check(tok, lsm.OpExport, "snapshot/"+label); err != nil {
		return 0, err
	}
	if label == "" || strings.ContainsRune(label, '/') {
		return 0, fmt.Errorf("%w: bad snapshot label %q", ErrBadPDID, label)
	}
	s.cold.snapMu.Lock()
	defer s.cold.snapMu.Unlock()
	for i, fs := range s.fss {
		if _, err := fs.Lookup(s.cold.snapRoots[i], label); err == nil {
			return 0, fmt.Errorf("%w: %q", ErrSnapshotExists, label)
		} else if !errors.Is(err, inode.ErrChildNotFound) {
			return 0, err
		}
	}
	total := 0
	for i, fs := range s.fss {
		arch := coldtier.New()
		ents, err := fs.Children(s.subjectRoots[i])
		if err != nil {
			return 0, err
		}
		subjects := make([]string, 0, len(ents))
		for _, e := range ents {
			subjects = append(subjects, e.Name)
		}
		sort.Strings(subjects)
		for _, subject := range subjects {
			sr := s.shardOf(subject)
			sr.lk.RLock()
			n, err := s.snapshotSubjectLocked(sr, subject, arch)
			sr.lk.RUnlock()
			if err != nil {
				return 0, err
			}
			total += n
		}
		enc, err := arch.Encode()
		if err != nil {
			return 0, err
		}
		snapRoot := s.cold.snapRoots[i]
		err = fs.Do([]inode.Ino{snapRoot}, func(op *inode.Op) error {
			_, err := createFile(op, snapRoot, label, "snapshot:"+clipTag(label), enc)
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("dbfs: write snapshot %q: %w", label, err)
		}
	}
	s.bumpStats(func(st *Stats) { st.SnapshotsTaken++ })
	return total, nil
}

// snapshotSubjectLocked captures one subject's membranes (hot then
// archived) into arch; caller holds the subject's shard read lock.
func (s *Store) snapshotSubjectLocked(sr shardRef, subject string, arch *coldtier.Archive) (int, error) {
	n := 0
	put := func(pdid string, memBytes []byte) error {
		sealed, err := s.vault.Seal(pdid, memBytes)
		if errors.Is(err, cryptoshred.ErrKeyDestroyed) {
			arch.MarkErased(pdid)
			n++
			return nil
		}
		if err != nil {
			return fmt.Errorf("dbfs: snapshot seal %s: %w", pdid, err)
		}
		arch.Put(pdid, map[string][]byte{coldPartMem: sealed})
		n++
		return nil
	}
	subjIno, err := sr.fs.Lookup(sr.subjRoot, subject)
	if err != nil && !errors.Is(err, inode.ErrChildNotFound) {
		return 0, err
	}
	if err == nil {
		typeTrees, err := sr.fs.Children(subjIno)
		if err != nil {
			return 0, err
		}
		sort.Slice(typeTrees, func(i, j int) bool { return typeTrees[i].Name < typeTrees[j].Name })
		for _, tt := range typeTrees {
			recs, err := sr.fs.Children(tt.Ino)
			if err != nil {
				return 0, err
			}
			names := make([]string, 0, len(recs))
			for _, rc := range recs {
				if name, ok := strings.CutSuffix(rc.Name, memSuffix); ok {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			for _, name := range names {
				memIno, err := sr.fs.Lookup(tt.Ino, name+memSuffix)
				if err != nil {
					return 0, err
				}
				memBytes, err := readAll(sr.fs, memIno)
				if err != nil {
					return 0, err
				}
				if err := put(tt.Name+"/"+subject+"/"+name, memBytes); err != nil {
					return 0, err
				}
			}
		}
	}
	// Archived records not shadowed by a hot copy (arch.Has filters the
	// stale entries of promoted records, already captured above).
	cs := &s.cold.shards[sr.idx]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.init()
	var coldIDs []string
	for pdid := range cs.archived {
		if _, subj, _, err := SplitPDID(pdid); err == nil && subj == subject && !arch.Has(pdid) {
			coldIDs = append(coldIDs, pdid)
		}
	}
	if len(coldIDs) == 0 {
		return n, nil
	}
	sort.Strings(coldIDs)
	sub, err := s.coldArchiveLoad(sr, subject)
	if err != nil {
		return 0, err
	}
	for _, pdid := range coldIDs {
		parts, ok := sub.Get(pdid)
		if !ok || parts[coldPartMem] == nil {
			continue // stale index entry
		}
		if err := put(pdid, parts[coldPartMem]); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// Snapshots lists the snapshot labels, sorted.
func (s *Store) Snapshots(tok *lsm.Token) ([]string, error) {
	if err := s.check(tok, lsm.OpScan, "snapshots"); err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	for i, fs := range s.fss {
		ents, err := fs.Children(s.cold.snapRoots[i])
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			seen[e.Name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// SnapshotMembrane reads one record's membrane as it was when the labeled
// snapshot was taken. After the record is erased this fails with a
// cryptoshred.ErrKeyDestroyed-wrapped error — the snapshot holds only
// ciphertext under the record's shredded key. A record that was already
// erased when the snapshot was taken fails the same way.
func (s *Store) SnapshotMembrane(tok *lsm.Token, label, pdid string) (*membrane.Membrane, error) {
	if err := s.check(tok, lsm.OpRead, "snapshot/"+label+"/"+pdid); err != nil {
		return nil, err
	}
	r, _, err := s.resolve(pdid)
	if err != nil {
		return nil, err
	}
	sr := s.shardOf(r.subjectID)
	fi := int(sr.idx) % len(s.fss)
	snapIno, err := s.fss[fi].Lookup(s.cold.snapRoots[fi], label)
	if errors.Is(err, inode.ErrChildNotFound) {
		return nil, fmt.Errorf("%w: %q", ErrNoSnapshot, label)
	}
	if err != nil {
		return nil, err
	}
	raw, err := readAll(s.fss[fi], snapIno)
	if err != nil {
		return nil, fmt.Errorf("dbfs: read snapshot %q: %w", label, err)
	}
	arch, err := coldtier.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("dbfs: snapshot %q: %w", label, err)
	}
	entry, ok := arch.Lookup(pdid)
	if !ok {
		return nil, fmt.Errorf("%w: %s not in snapshot %q", ErrNoRecord, pdid, label)
	}
	if entry.Erased {
		return nil, fmt.Errorf("dbfs: snapshot %q: %s erased before capture: %w", label, pdid, cryptoshred.ErrKeyDestroyed)
	}
	parts, _ := arch.Get(pdid)
	sealed := parts[coldPartMem]
	sr.lk.RLock()
	memBytes, err := s.vault.Open(pdid, sealed)
	sr.lk.RUnlock()
	if err != nil {
		return nil, fmt.Errorf("dbfs: snapshot %q: unseal %s: %w", label, pdid, err)
	}
	m, err := membrane.Decode(memBytes)
	if err != nil {
		return nil, fmt.Errorf("dbfs: snapshot %q: membrane %s: %w", label, pdid, err)
	}
	return m, nil
}
