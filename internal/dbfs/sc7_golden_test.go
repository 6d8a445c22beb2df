package dbfs_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cryptoshred"
	"repro/internal/dbfs"
	"repro/internal/golden"
	"repro/internal/inode"
	"repro/internal/lsm"
	"repro/internal/membrane"
	"repro/internal/simclock"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// sc7Row is one phase of the cold-tier experiment. Every column is a
// deterministic count, never wall-clock.
type sc7Row struct {
	Phase        string `json:"phase"`
	Config       string `json:"config"`
	Records      int    `json:"records"`
	UsedBlocks   uint64 `json:"used_blocks"`
	DeviceReads  uint64 `json:"device_reads"`
	DeviceWrites uint64 `json:"device_writes"`
}

// sc7Report is the schema of testdata/sc7.golden.json.
type sc7Report struct {
	Experiment string   `json:"experiment"`
	Schema     int      `json:"schema"`
	Rows       []sc7Row `json:"rows"`
	Summary    struct {
		// Hot/ColdRecordBlocks are the device blocks the population
		// occupies before and after demotion (metadata base subtracted).
		Records          int     `json:"records"`
		HotRecordBlocks  uint64  `json:"hot_record_blocks"`
		ColdRecordBlocks uint64  `json:"cold_record_blocks"`
		FootprintRatio   float64 `json:"footprint_ratio"`
		ColdBytesSaved   int64   `json:"cold_bytes_saved"`
		// HotPathOps* count device ops over the same all-hot read
		// workload with the tier disabled vs enabled.
		HotPathOpsBaseline  uint64  `json:"hot_path_ops_baseline"`
		HotPathOpsColdOn    uint64  `json:"hot_path_ops_cold_on"`
		HotPathOpsRatio     float64 `json:"hot_path_ops_ratio"`
		PromotedRecords     int     `json:"promoted_records"`
		PromoteOpsPerRecord float64 `json:"promote_ops_per_record"`
		// RedemotionNewBytes is the archive bytes the re-demotion of the
		// promoted, unchanged records added: the drop of the ColdBytesSaved
		// gauge over the pass (the rewritten entries' raw bytes are
		// unchanged).
		RedemotionNewBytes int64 `json:"redemotion_new_bytes"`
		// Shred safety of one erased record: its archived ciphertext and
		// membrane-snapshot entry, and plaintext copies on the raw device.
		ArchiveUndecodable   bool `json:"archive_undecodable"`
		SnapshotUndecodable  bool `json:"snapshot_undecodable"`
		PlaintextResidueHits int  `json:"plaintext_residue_hits"`
	} `json:"summary"`
}

// sc7Rig is a deterministic standalone DBFS: simclock, seeded vault
// entropy, no block cache, so every block write and ciphertext byte is a
// pure function of the seed and every read reaches the device.
type sc7Rig struct {
	dev   *blockdev.Mem
	fs    *inode.FS
	store *dbfs.Store
	vault *cryptoshred.Vault
	clock *simclock.Sim
	tok   *lsm.Token
}

func newSC7Rig(t *testing.T, seed uint64, coldAfter time.Duration) *sc7Rig {
	t.Helper()
	dev := blockdev.MustMem(16384)
	clock := simclock.NewSim(simclock.Epoch)
	fs, err := inode.Format(dev, inode.Options{NInodes: 8192, JournalBlocks: 256, Clock: clock, CacheBlocks: -1})
	if err != nil {
		t.Fatal(err)
	}
	auth, err := cryptoshred.NewAuthority(1024)
	if err != nil {
		t.Fatal(err)
	}
	guard := lsm.NewGuard()
	vault := cryptoshred.NewVault(auth.PublicKey())
	vault.SetRand(xrand.NewReader(seed))
	store, err := dbfs.Create([]*inode.FS{fs}, guard, vault, clock, dbfs.Config{ColdAfter: coldAfter})
	if err != nil {
		t.Fatal(err)
	}
	tok := guard.Mint("ded", lsm.CapDBFS)
	sch := &dbfs.Schema{
		Name: "user",
		Fields: []dbfs.Field{
			{Name: "name", Type: dbfs.TypeString},
			{Name: "pwd", Type: dbfs.TypeString, Sensitive: true},
			{Name: "year_of_birthdate", Type: dbfs.TypeInt},
		},
		Views: []dbfs.View{{Name: "v_ano", Fields: []string{"year_of_birthdate"}}},
		DefaultConsent: map[string]membrane.Grant{
			"purpose3": {Kind: membrane.GrantView, View: "v_ano"},
		},
		DefaultTTL: 365 * 24 * time.Hour,
	}
	if err := store.CreateType(tok, sch); err != nil {
		t.Fatal(err)
	}
	return &sc7Rig{dev: dev, fs: fs, store: store, vault: vault, clock: clock, tok: tok}
}

// TestSC7Golden runs the cold tier end to end on two identically seeded
// rigs, one with the tier disabled: footprint of demoting an idle
// population into compressed per-subject archives, the hot-path tax while
// records stay hot, the device-op cost of transparent promotion, the bytes
// an unchanged re-demotion adds, and crypto-shredding over archives and
// membrane snapshots. Every count must match testdata/sc7.golden.json.
func TestSC7Golden(t *testing.T) {
	const (
		seed           = 42
		nSubjects      = 20
		recsPerSubject = 3
		promoteK       = 8
		readPasses     = 2
		coldAfter      = time.Hour
	)
	totalRecs := nSubjects * recsPerSubject
	report := sc7Report{Experiment: "SC7", Schema: 1}
	report.Summary.Records = totalRecs

	row := func(phase, config string, records int, r *sc7Rig, base blockdev.Stats) sc7Row {
		st := r.dev.Stats()
		return sc7Row{
			Phase: phase, Config: config, Records: records,
			UsedBlocks:   r.fs.UsedBlocks(),
			DeviceReads:  st.Reads - base.Reads,
			DeviceWrites: st.Writes - base.Writes,
		}
	}
	seedInto := func(r *sc7Rig) []string {
		rng := xrand.New(seed + 7)
		pdids := make([]string, 0, totalRecs)
		for _, subject := range workload.SubjectIDs(nSubjects) {
			for k := 0; k < recsPerSubject; k++ {
				pdid, err := r.store.Insert(r.tok, "user", subject, workload.UserRecord(rng, subject), nil)
				if err != nil {
					t.Fatal(err)
				}
				pdids = append(pdids, pdid)
			}
		}
		return pdids
	}
	readAllHot := func(r *sc7Rig, pdids []string) {
		for pass := 0; pass < readPasses; pass++ {
			for _, pdid := range pdids {
				if _, err := r.store.GetRecord(r.tok, pdid); err != nil {
					t.Fatal(err)
				}
				if _, err := r.store.GetMembrane(r.tok, pdid); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	off, on := newSC7Rig(t, seed, 0), newSC7Rig(t, seed, coldAfter)
	baseBlocksOn := on.fs.UsedBlocks()
	offPDIDs, onPDIDs := seedInto(off), seedInto(on)
	report.Rows = append(report.Rows,
		row("insert", "cold-off", totalRecs, off, blockdev.Stats{}),
		row("insert", "cold-on", totalRecs, on, blockdev.Stats{}))
	hotBlocks := on.fs.UsedBlocks() - baseBlocksOn

	// Hot path: while nothing demotes, the enabled tier must cost nothing.
	baseOff, baseOn := off.dev.Stats(), on.dev.Stats()
	readAllHot(off, offPDIDs)
	readAllHot(on, onPDIDs)
	rOff := row("read-hot", "cold-off", totalRecs, off, baseOff)
	rOn := row("read-hot", "cold-on", totalRecs, on, baseOn)
	report.Rows = append(report.Rows, rOff, rOn)
	s := &report.Summary
	s.HotPathOpsBaseline = rOff.DeviceReads + rOff.DeviceWrites
	s.HotPathOpsColdOn = rOn.DeviceReads + rOn.DeviceWrites
	s.HotPathOpsRatio = float64(s.HotPathOpsColdOn) / float64(s.HotPathOpsBaseline)

	// Demote the whole (now idle) population.
	on.clock.Advance(2 * coldAfter)
	base := on.dev.Stats()
	demoted, err := on.store.RepackCold(on.tok, on.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if demoted != totalRecs {
		t.Fatalf("demoted %d of %d records", demoted, totalRecs)
	}
	report.Rows = append(report.Rows, row("repack", "cold-on", demoted, on, base))
	s.HotRecordBlocks = hotBlocks
	s.ColdRecordBlocks = on.fs.UsedBlocks() - baseBlocksOn
	s.FootprintRatio = float64(s.HotRecordBlocks) / float64(s.ColdRecordBlocks)
	s.ColdBytesSaved = on.store.Stats().ColdBytesSaved

	// Transparent promotion: the first read of an archived record.
	base = on.dev.Stats()
	for _, pdid := range onPDIDs[:promoteK] {
		if _, err := on.store.GetRecord(on.tok, pdid); err != nil {
			t.Fatalf("promote %s: %v", pdid, err)
		}
	}
	rPromote := row("promote", "cold-on", promoteK, on, base)
	report.Rows = append(report.Rows, rPromote)
	s.PromotedRecords = promoteK
	s.PromoteOpsPerRecord = float64(rPromote.DeviceReads+rPromote.DeviceWrites) / promoteK

	// Re-demotion of the promoted, unchanged records.
	on.clock.Advance(2 * coldAfter)
	base = on.dev.Stats()
	savedBefore := on.store.Stats().ColdBytesSaved
	redemoted, err := on.store.RepackCold(on.tok, on.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	report.Rows = append(report.Rows, row("re-repack", "cold-on", redemoted, on, base))
	s.RedemotionNewBytes = savedBefore - on.store.Stats().ColdBytesSaved

	// Shred safety: snapshot the membranes, erase one (promoted) record.
	victim := onPDIDs[0]
	victimRec, err := on.store.GetRecord(on.tok, victim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := on.store.SnapshotMembranes(on.tok, "sc7-audit"); err != nil {
		t.Fatal(err)
	}
	if _, err := on.store.Erase(on.tok, victim); err != nil {
		t.Fatal(err)
	}
	parts, err := on.store.ColdRaw(on.tok, victim)
	if err != nil {
		t.Fatal(err)
	}
	_, dataErr := on.vault.Open(victim, parts["data"])
	s.ArchiveUndecodable = errors.Is(dataErr, cryptoshred.ErrKeyDestroyed)
	_, snapErr := on.store.SnapshotMembrane(on.tok, "sc7-audit", victim)
	s.SnapshotUndecodable = errors.Is(snapErr, cryptoshred.ErrKeyDestroyed)
	s.PlaintextResidueHits = bytes.Count(on.dev.ReadRaw(), []byte(victimRec["name"].S))

	if !s.ArchiveUndecodable {
		t.Errorf("archive_undecodable: erased record's archived data opened with err %v", dataErr)
	}
	if !s.SnapshotUndecodable {
		t.Errorf("snapshot_undecodable: erased record's snapshot entry decoded with err %v", snapErr)
	}
	if s.HotPathOpsColdOn != s.HotPathOpsBaseline {
		t.Errorf("hot_path_ops_cold_on = %d, want hot_path_ops_baseline = %d", s.HotPathOpsColdOn, s.HotPathOpsBaseline)
	}
	if s.PlaintextResidueHits != 0 {
		t.Errorf("plaintext_residue_hits = %d, want 0", s.PlaintextResidueHits)
	}
	if s.RedemotionNewBytes != 0 {
		t.Errorf("redemotion_new_bytes = %d, want 0", s.RedemotionNewBytes)
	}
	golden.JSON(t, "testdata/sc7.golden.json", &report)
}
