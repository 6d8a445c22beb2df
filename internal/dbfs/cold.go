package dbfs

// The cold tier: demotion of idle records into per-subject compressed
// archives (archive.go), an in-memory archive index for O(1) cold lookups,
// transparent promotion back to the hot tier on first read, and immutable
// membrane snapshots riding the same archive format.
//
// Layout: each filesystem instance carries two more root trees, "cold"
// (one archive file per subject, named by subject ID) and "snapshots"
// (one archive file per snapshot label). Records reach the archive as the
// exact ciphertext bytes the hot tier stored — crypto-shredding therefore
// covers archived copies for free — plus their plaintext membrane bytes
// (membranes are stored in clear in the hot tier too; tombstones must
// stay readable for idempotent erasure). An archive holds one subject's
// records only, so shredding a record's key leaves nothing of it readable
// in any archive.
//
// Locking: each subject shard owns a coldShard whose mutex is a leaf
// under the shard lock — lock order shard → cold.mu, and a cold
// section never takes metaMu. Demotion runs under the shard WRITE
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
// hot wins): if the record re-idles unchanged, re-demotion replaces the
// entry with the same bytes, so the rewritten archive is byte-identical.
// Delete physically removes the archive entry. Erase leaves it, because
// erased ciphertext is exactly as dead as the hot tier's (ErrKeyDestroyed)
// and is retained for the authority like the hot copy. An erased record
// stays hot as <n>.erased and is never demoted again; that name shadows
// the entry in both listings, across a remount too.

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

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
	after  time.Duration // idle threshold, fixed at Create/Open
	shards [DefaultShards]coldShard
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

// ColdAfter reports the configured idle threshold (0 = demotion disabled).
func (s *Store) ColdAfter() time.Duration { return s.cold.after }

// coldTouch stamps a record's last-touch instant; caller holds the
// subject's shard lock (either side). Skipped while demotion is disabled
// so the disabled tier costs one field read per operation.
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

// coldTrees pairs instance i's cold and snapshot tree names with their
// root slots: Create makes both trees on every instance, Open looks them
// up.
func (s *Store) coldTrees(i int) []treeSlot {
	return []treeSlot{{coldRootName, &s.cold.roots[i]}, {snapRootName, &s.cold.snapRoots[i]}}
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
			arch, err := decodeArchive(raw)
			if err != nil {
				return fmt.Errorf("dbfs: cold archive %q: %w", e.Name, err)
			}
			cs := &s.cold.shards[ShardOf(e.Name)]
			cs.mu.Lock()
			cs.init()
			for pdid := range arch {
				cs.archived[pdid] = true
			}
			cs.saved[e.Name] = arch.rawSize() - int64(len(raw))
			cs.mu.Unlock()
		}
	}
	return nil
}

// coldArchiveLoad reads and decodes a subject's archive, or returns a
// fresh one if none exists yet. Caller holds the subject's shard lock and
// the shard's cold mutex.
func (s *Store) coldArchiveLoad(sr shardRef, subjectID string) (archive, error) {
	raw, err := readChild(sr.fs, sr.coldRoot, subjectID)
	if errors.Is(err, inode.ErrChildNotFound) {
		return archive{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dbfs: read cold archive %q: %w", subjectID, err)
	}
	arch, err := decodeArchive(raw)
	if err != nil {
		return nil, fmt.Errorf("dbfs: cold archive %q: %w", subjectID, err)
	}
	return arch, nil
}

// coldArchiveStore durably (re)writes a subject's archive — or removes the
// file when the archive emptied — and refreshes the subject's saved-bytes
// accounting. Caller holds the subject's shard lock and the shard's cold
// mutex.
func (s *Store) coldArchiveStore(sr shardRef, cs *coldShard, subjectID string, arch archive) error {
	cs.init()
	if len(arch) == 0 {
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
	enc, err := arch.encode()
	if err != nil {
		return err
	}
	if err := writeOrReplaceFile(sr.fs, sr.coldRoot, subjectID, "cold-archive", enc); err != nil {
		return err
	}
	cs.saved[subjectID] = arch.rawSize() - int64(len(enc))
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
// already promoted by a racing reader). The archive entry is retained, so
// an unchanged re-demotion rewrites the same bytes; hot wins on every read
// path.
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
	parts := arch[r.pdid].Parts
	if parts[coldPartData] == nil || parts[coldPartMem] == nil {
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
	s.stats.promotions.Add(1)
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
	delete(arch, r.pdid)
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
// removed), and the number demoted is returned. A zero threshold makes the
// pass a no-op. The pass scans shard by shard under the shard write locks,
// in deterministic order; core's background repacker drives it, and tests
// call it directly for deterministic single passes. A failed pass counts
// in Stats.RepackErrors, so a background pass's error stays visible.
func (s *Store) RepackCold(tok *lsm.Token, now time.Time) (demoted int, err error) {
	defer func() {
		if err != nil {
			s.stats.repackErrors.Add(1)
		}
	}()
	if err := s.check(tok, lsm.OpWrite, "cold/repack"); err != nil {
		return 0, err
	}
	after := s.ColdAfter()
	if after == 0 {
		return 0, nil
	}
	cutoff := now.Add(-after)

	// Point-in-time subject listing, grouped by shard (the scan view is
	// racy, the per-subject work is locked).
	subjects, err := s.subjectNames()
	if err != nil {
		return 0, err
	}
	var byShard [DefaultShards][]string
	for _, subject := range subjects {
		sh := ShardOf(subject)
		byShard[sh] = append(byShard[sh], subject)
	}
	for sh, subjects := range byShard {
		if len(subjects) == 0 {
			continue
		}
		sr := s.shardAt(uint32(sh))
		sr.lk.Lock()
		n, err := s.repackShardLocked(sr, subjects, cutoff)
		sr.lk.Unlock()
		demoted += n
		if err != nil {
			return demoted, err
		}
	}
	return demoted, nil
}

// repackShardLocked demotes one shard's idle records, subject by subject
// and in type-name then record-name order, and returns how many it demoted;
// caller holds the shard write lock.
func (s *Store) repackShardLocked(sr shardRef, subjects []string, cutoff time.Time) (int, error) {
	cs := &s.cold.shards[sr.idx]
	demoted := 0
	for _, subject := range subjects {
		var idle []hotRecord
		cs.mu.Lock()
		err := s.walkSubjectLocked(sr, subject, func(h hotRecord) {
			if h.erased {
				return // an erased record stays where it is
			}
			if t, ok := cs.touches[h.typeName+"/"+subject+"/"+h.name]; !ok || !t.After(cutoff) {
				idle = append(idle, h)
			}
		})
		cs.mu.Unlock()
		if err != nil {
			return demoted, err
		}
		if len(idle) == 0 {
			continue
		}
		sortHot(idle)
		// Resolve and read every idle record before taking the cold mutex:
		// recordInos may promote, which takes it.
		refs := make([]ref, len(idle))
		files := make([]recordFiles, len(idle))
		add := make(archive, len(idle))
		for i, h := range idle {
			if refs[i], err = parseRef(h.typeName + "/" + subject + "/" + h.name); err != nil {
				return demoted, err
			}
			if files[i], err = s.recordInos(sr, refs[i]); err != nil {
				return demoted, err
			}
			parts := make(map[string][]byte, 3)
			for _, p := range []struct {
				name string
				ino  inode.Ino
			}{{coldPartData, files[i].data}, {coldPartSens, files[i].sens}, {coldPartMem, files[i].mem}} {
				if p.ino == 0 {
					continue
				}
				if parts[p.name], err = readAll(sr.fs, p.ino); err != nil {
					return demoted, fmt.Errorf("dbfs: read %s %s: %w", refs[i].pdid, p.name, err)
				}
			}
			add[refs[i].pdid] = archiveEntry{Parts: parts}
		}
		n, err := s.demoteLocked(sr, cs, subject, refs, files, add)
		demoted += n
		if err != nil {
			return demoted, err
		}
	}
	return demoted, nil
}

// demoteLocked writes add into subject's archive, then removes the hot
// files of refs (whose entries add holds) and returns how many it removed.
// The archive lands durably BEFORE any hot file goes away: a crash between
// the two leaves the records in both tiers, and hot wins. Caller holds the
// shard write lock.
func (s *Store) demoteLocked(sr shardRef, cs *coldShard, subject string, refs []ref, files []recordFiles, add archive) (int, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	arch, err := s.coldArchiveLoad(sr, subject)
	if err != nil {
		return 0, err
	}
	for pdid, e := range add {
		arch[pdid] = e
	}
	if err := s.coldArchiveStore(sr, cs, subject, arch); err != nil {
		return 0, err
	}
	for i, r := range refs {
		if err := s.removeRecordFiles(sr, r, files[i]); err != nil {
			return i, err
		}
		cs.archived[r.pdid] = true
		delete(cs.touches, r.pdid)
		s.stats.demotions.Add(1)
	}
	return len(refs), nil
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
	e, ok := arch[r.pdid]
	if !ok {
		return nil, fmt.Errorf("%w: %s not archived", ErrNoRecord, pdid)
	}
	return e.Parts, nil
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
	subjects, err := s.subjectNames()
	if err != nil {
		return 0, err
	}
	total := 0
	for i, fs := range s.fss {
		arch := archive{}
		for _, subject := range subjects {
			sr := s.shardOf(subject)
			if sr.fs != fs {
				continue // the subject's records are on another instance
			}
			sr.lk.RLock()
			n, err := s.snapshotSubjectLocked(sr, subject, arch)
			sr.lk.RUnlock()
			if err != nil {
				return 0, err
			}
			total += n
		}
		enc, err := arch.encode()
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
	s.stats.snapshotsTaken.Add(1)
	return total, nil
}

// snapshotSubjectLocked captures one subject's membranes (hot then
// archived) into arch; caller holds the subject's shard read lock.
func (s *Store) snapshotSubjectLocked(sr shardRef, subject string, arch archive) (int, error) {
	n := 0
	put := func(pdid string, memBytes []byte) error {
		sealed, err := s.vault.Seal(pdid, memBytes)
		if errors.Is(err, cryptoshred.ErrKeyDestroyed) {
			arch[pdid] = archiveEntry{Erased: true}
			n++
			return nil
		}
		if err != nil {
			return fmt.Errorf("dbfs: snapshot seal %s: %w", pdid, err)
		}
		arch[pdid] = archiveEntry{Parts: map[string][]byte{coldPartMem: sealed}}
		n++
		return nil
	}
	var hot []hotRecord
	if err := s.walkSubjectLocked(sr, subject, func(h hotRecord) { hot = append(hot, h) }); err != nil {
		return 0, err
	}
	sortHot(hot)
	for _, h := range hot {
		pdid := h.typeName + "/" + subject + "/" + h.name
		if h.erased {
			arch[pdid] = archiveEntry{Erased: true}
			n++
			continue
		}
		memBytes, err := readAll(sr.fs, h.mem)
		if err != nil {
			return 0, err
		}
		if err := put(pdid, memBytes); err != nil {
			return 0, err
		}
	}
	// Archived records not shadowed by a hot copy (the stale entries of
	// promoted records are already captured above).
	var coldIDs []string
	for _, pdid := range s.coldPDIDs(sr, subject) {
		if _, captured := arch[pdid]; !captured {
			coldIDs = append(coldIDs, pdid)
		}
	}
	if len(coldIDs) == 0 {
		return n, nil
	}
	cs := &s.cold.shards[sr.idx]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	sub, err := s.coldArchiveLoad(sr, subject)
	if err != nil {
		return 0, err
	}
	for _, pdid := range coldIDs {
		mem := sub[pdid].Parts[coldPartMem]
		if mem == nil {
			continue // stale index entry
		}
		if err := put(pdid, mem); err != nil {
			return 0, err
		}
	}
	return n, nil
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
	raw, err := readChild(sr.fs, sr.snapRoot, label)
	if errors.Is(err, inode.ErrChildNotFound) {
		return nil, fmt.Errorf("%w: %q", ErrNoSnapshot, label)
	}
	if err != nil {
		return nil, fmt.Errorf("dbfs: read snapshot %q: %w", label, err)
	}
	arch, err := decodeArchive(raw)
	if err != nil {
		return nil, fmt.Errorf("dbfs: snapshot %q: %w", label, err)
	}
	entry, ok := arch[pdid]
	if !ok {
		return nil, fmt.Errorf("%w: %s not in snapshot %q", ErrNoRecord, pdid, label)
	}
	if entry.Erased {
		return nil, fmt.Errorf("dbfs: snapshot %q: %s erased before capture: %w", label, pdid, cryptoshred.ErrKeyDestroyed)
	}
	sr.lk.RLock()
	memBytes, err := s.vault.Open(pdid, entry.Parts[coldPartMem])
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
