package dbfs

// Shard-geometry tests: the mount-time shard count (CreateShards /
// core.Options.Shards), its persistence in the per-instance shard config,
// the legacy 16-byte config fallback, and the shard-collision balance
// sweep — the measured basis for DefaultShards = 64.

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/cryptoshred"
	"repro/internal/inode"
	"repro/internal/lsm"
	"repro/internal/simclock"
)

// newShardedEnvShards is newShardedEnv with an explicit shard count.
func newShardedEnvShards(t *testing.T, n, shards int) *shardedEnv {
	t.Helper()
	const devBlocks = 8192
	dev := blockdev.MustMem(devBlocks)
	clock := simclock.NewSim(simclock.Epoch)
	per := uint64(devBlocks / n)
	fss := make([]*inode.FS, n)
	for i := range fss {
		part, err := blockdev.NewPartition(dev, uint64(i)*per, per)
		if err != nil {
			t.Fatalf("NewPartition %d: %v", i, err)
		}
		fss[i], err = inode.Format(part, inode.Options{NInodes: 1024, JournalBlocks: 64, Clock: clock})
		if err != nil {
			t.Fatalf("inode.Format %d: %v", i, err)
		}
	}
	auth, err := cryptoshred.NewAuthority(1024)
	if err != nil {
		t.Fatal(err)
	}
	guard := lsm.NewGuard()
	store, err := CreateShards(fss, guard, cryptoshred.NewVault(auth.PublicKey()), clock, shards)
	if err != nil {
		t.Fatalf("CreateShards: %v", err)
	}
	if err := store.CreateType(store.guard.Mint("boot", lsm.CapDBFS), userSchema()); err != nil {
		t.Fatalf("CreateType: %v", err)
	}
	return &shardedEnv{dev: dev, fss: fss, store: store, tok: guard.Mint("ded", lsm.CapDBFS)}
}

// remount re-mounts an env's device into a fresh Open.
func remount(t *testing.T, e *shardedEnv) (*Store, error) {
	t.Helper()
	clock := simclock.NewSim(simclock.Epoch)
	per := e.dev.NumBlocks() / uint64(len(e.fss))
	fss2 := make([]*inode.FS, len(e.fss))
	for i := range fss2 {
		part, err := blockdev.NewPartition(e.dev, uint64(i)*per, per)
		if err != nil {
			t.Fatal(err)
		}
		if fss2[i], err = inode.Mount(part, clock); err != nil {
			t.Fatalf("Mount %d: %v", i, err)
		}
	}
	return Open(fss2, e.store.guard, e.store.vault, clock)
}

func TestCreateShardsValidation(t *testing.T) {
	e := newShardedEnv(t, 2)
	// Fewer shards than instances would leave instances unreachable.
	if _, err := CreateShards(e.fss, e.store.guard, e.store.vault, e.store.clock, 1); err == nil {
		t.Fatal("CreateShards with shards < instances succeeded")
	}
}

func TestCustomShardCountPersistsAcrossRemount(t *testing.T) {
	e := newShardedEnvShards(t, 2, 16)
	if got := e.store.NumShards(); got != 16 {
		t.Fatalf("NumShards = %d, want 16", got)
	}
	if got := len(e.store.ShardScans()); got != 16 {
		t.Fatalf("len(ShardScans) = %d, want 16", got)
	}
	pdids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		subj := "subj" + strconv.Itoa(i)
		pdid, err := e.store.Insert(e.tok, "user", subj, Record{
			"name": S("user " + subj), "pwd": S("pw"), "year_of_birthdate": I(1990),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		pdids = append(pdids, pdid)
		if sh := e.store.ShardOf(subj); sh >= 16 {
			t.Fatalf("ShardOf(%q) = %d, outside 16-shard geometry", subj, sh)
		}
	}
	store2, err := remount(t, e)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	if got := store2.NumShards(); got != 16 {
		t.Fatalf("remounted NumShards = %d, want 16", got)
	}
	for _, pdid := range pdids {
		if _, err := store2.GetRecord(e.tok, pdid); err != nil {
			t.Fatalf("GetRecord %s after remount: %v", pdid, err)
		}
	}
}

// rewriteShardCfg replaces one instance's shard config file contents.
func rewriteShardCfg(t *testing.T, fs *inode.FS, raw []byte) {
	t.Helper()
	ino, err := fs.Lookup(inode.RootIno, shardCfgName)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(ino, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(ino, 0, raw); err != nil {
		t.Fatal(err)
	}
}

func TestLegacyShardConfigMeansDefaultShards(t *testing.T) {
	e := newShardedEnvShards(t, 2, DefaultShards)
	// Rewrite both instances' configs in the pre-shard-count 16-byte
	// format (instance count, instance index only).
	for i, fs := range e.fss {
		var cfg [16]byte
		binary.LittleEndian.PutUint64(cfg[0:], uint64(len(e.fss)))
		binary.LittleEndian.PutUint64(cfg[8:], uint64(i))
		rewriteShardCfg(t, fs, cfg[:])
	}
	store2, err := remount(t, e)
	if err != nil {
		t.Fatalf("remount with legacy config: %v", err)
	}
	if got := store2.NumShards(); got != DefaultShards {
		t.Fatalf("legacy config NumShards = %d, want %d", got, DefaultShards)
	}
}

func TestShardCountMismatchRejected(t *testing.T) {
	e := newShardedEnvShards(t, 2, 16)
	// Doctor instance 1 to claim a different shard count: remount must
	// refuse rather than silently re-route subjects.
	var cfg [24]byte
	binary.LittleEndian.PutUint64(cfg[0:], 2)
	binary.LittleEndian.PutUint64(cfg[8:], 1)
	binary.LittleEndian.PutUint64(cfg[16:], 32)
	rewriteShardCfg(t, e.fss[1], cfg[:])
	if _, err := remount(t, e); err == nil {
		t.Fatal("remount with mismatched shard counts succeeded")
	}
}

// TestShardBalanceSweep is the shard-collision sweep: over a
// realistic synthetic subject population (the "sNNNNNN" IDs the workload
// generator emits — workload itself imports dbfs, so the format is
// replicated here), measure per-shard load skew for candidate shard
// counts. The assertion pins the chosen default: at 64 shards the most
// loaded shard stays within 2x of the mean under FNV-1a. The logged table
// is the data recorded in DESIGN.md.
func TestShardBalanceSweep(t *testing.T) {
	subjects := make([]string, 50000)
	for i := range subjects {
		subjects[i] = fmt.Sprintf("s%06d", i+1)
	}
	for _, n := range []int{16, 32, 64, 128, 256} {
		counts := make([]int, n)
		for _, s := range subjects {
			counts[hashSubject(s)%uint32(n)]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		mean := float64(len(subjects)) / float64(n)
		skew := float64(max) / mean
		t.Logf("shards=%3d  mean=%7.1f  max=%5d  skew=%.3f", n, mean, max, skew)
		if n == DefaultShards && skew > 2.0 {
			t.Fatalf("default %d shards skew %.3f exceeds 2x", n, skew)
		}
	}
}

func TestMembraneCacheRuntimeResize(t *testing.T) {
	e := newShardedEnv(t, 2)
	subj := "resize-subj"
	pdid, err := e.store.Insert(e.tok, "user", subj, Record{
		"name": S("R"), "pwd": S("pw"), "year_of_birthdate": I(1990),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	read := func() {
		t.Helper()
		if _, err := e.store.GetMembrane(e.tok, pdid); err != nil {
			t.Fatal(err)
		}
	}
	read() // insert write-through makes this a hit already
	base := e.store.Stats()
	if base.CacheHits == 0 {
		t.Fatalf("expected warm cache, stats %+v", base)
	}
	// Growing the cache must preserve entries: the next read is a hit
	// with no new miss.
	e.store.ConfigureMembraneCache(2 * DefaultMembraneCacheCap)
	read()
	st := e.store.Stats()
	if st.CacheHits != base.CacheHits+1 || st.CacheMisses != base.CacheMisses {
		t.Fatalf("resize dropped entries: before %+v after %+v", base, st)
	}
	if got := e.store.MembraneCacheCap(); got != 2*DefaultMembraneCacheCap {
		t.Fatalf("MembraneCacheCap = %d, want %d", got, 2*DefaultMembraneCacheCap)
	}
	// Disabling swaps the cache out; reads still serve correct data.
	e.store.ConfigureMembraneCache(-1)
	if got := e.store.MembraneCacheCap(); got != -1 {
		t.Fatalf("MembraneCacheCap after disable = %d, want -1", got)
	}
	read()
	// Re-enabling starts empty and refills: one miss, then hits.
	e.store.ConfigureMembraneCache(0)
	read()
	read()
	st2 := e.store.Stats()
	if st2.CacheMisses == 0 || st2.CacheHits == 0 {
		t.Fatalf("re-enabled cache not refilling: %+v", st2)
	}
}

// TestShardScansSizedToGeometry pins ShardScans to the mounted geometry
// so shard-congruent consumers (the rights due-index) can trust its
// length.
func TestShardScansSizedToGeometry(t *testing.T) {
	for _, shards := range []int{8, 64} {
		e := newShardedEnvShards(t, 2, shards)
		if got := len(e.store.ShardScans()); got != shards {
			t.Fatalf("shards=%d: len(ShardScans) = %d", shards, got)
		}
		subj := fmt.Sprintf("scan-subj-%d", shards)
		if _, err := e.store.Insert(e.tok, "user", subj, Record{
			"name": S("X"), "pwd": S("pw"), "year_of_birthdate": I(1990),
		}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := e.store.ListBySubject(e.tok, subj); err != nil {
			t.Fatal(err)
		}
		scans := e.store.ShardScans()
		if scans[e.store.ShardOf(subj)] == 0 {
			t.Fatalf("shards=%d: subject scan not counted on its shard", shards)
		}
	}
}
