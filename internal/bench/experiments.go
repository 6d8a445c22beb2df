package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cryptoshred"
	"repro/internal/dbfs"
	"repro/internal/inode"
	"repro/internal/lsm"
	"repro/internal/membrane"
	"repro/internal/simclock"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// --- SC7: content-addressable compressed cold tier ---

// SC7Row is one phase of the cold-tier experiment, serialized into
// BENCH_SC7.json. Every column is a deterministic count (blocks allocated,
// device ops) — never wall-clock — so the JSON is byte-identical across
// runs of the same seed and the CI gate can compare it exactly.
type SC7Row struct {
	Phase        string `json:"phase"`
	Config       string `json:"config"`
	Records      int    `json:"records"`
	UsedBlocks   uint64 `json:"used_blocks"`
	DeviceReads  uint64 `json:"device_reads"`
	DeviceWrites uint64 `json:"device_writes"`
}

// SC7Report is the BENCH_SC7.json schema.
type SC7Report struct {
	Experiment string   `json:"experiment"`
	Schema     int      `json:"schema"`
	Comment    string   `json:"comment,omitempty"`
	Rows       []SC7Row `json:"rows"`
	Summary    struct {
		// Records is the demoted population; Hot/ColdRecordBlocks the
		// device blocks those records occupy before and after demotion
		// (metadata base subtracted), FootprintRatio their quotient.
		Records          int     `json:"records"`
		HotRecordBlocks  uint64  `json:"hot_record_blocks"`
		ColdRecordBlocks uint64  `json:"cold_record_blocks"`
		FootprintRatio   float64 `json:"footprint_ratio"`
		// ColdBytesSaved is the store's saved-bytes gauge after demotion
		// (raw entry bytes minus encoded archive bytes).
		ColdBytesSaved int64 `json:"cold_bytes_saved"`
		// HotPathOps* count device ops over an identical all-hot read
		// workload with the tier disabled vs enabled; the ratio is the
		// tier's hot-path tax and must stay within the gate band.
		HotPathOpsBaseline uint64  `json:"hot_path_ops_baseline"`
		HotPathOpsColdOn   uint64  `json:"hot_path_ops_cold_on"`
		HotPathOpsRatio    float64 `json:"hot_path_ops_ratio"`
		// PromoteOpsPerRecord is the device-op cost of one transparent
		// promotion (first read of an archived record) — the promotion
		// latency ceiling, in deterministic units.
		PromotedRecords     int     `json:"promoted_records"`
		PromoteOpsPerRecord float64 `json:"promote_ops_per_record"`
		// Re-demotion of promoted-but-unchanged records must dedup onto
		// the retained chunks: every part a hit, no new archive bytes.
		RedemotionDedupHits uint64 `json:"redemotion_dedup_hits"`
		RedemotionNewBytes  int64  `json:"redemotion_new_bytes"`
		// Shred-safety: after erasing one record, its archived ciphertext
		// and its membrane-snapshot entry must not decode, and the raw
		// device must hold zero copies of the plaintext name.
		ArchiveUndecodable   bool `json:"archive_undecodable"`
		SnapshotUndecodable  bool `json:"snapshot_undecodable"`
		PlaintextResidueHits int  `json:"plaintext_residue_hits"`
	} `json:"summary"`
}

// sc7Rig is a deterministic standalone DBFS: simclock, seeded vault
// entropy (xrand.NewReader via Vault.SetRand), synchronous journal — every
// block write and ciphertext byte is a pure function of the seed.
type sc7Rig struct {
	dev   *blockdev.Mem
	fs    *inode.FS
	store *dbfs.Store
	vault *cryptoshred.Vault
	clock *simclock.Sim
	tok   *lsm.Token
}

func newSC7Rig(seed uint64, coldAfter time.Duration) (*sc7Rig, error) {
	dev := blockdev.MustMem(16384)
	clock := simclock.NewSim(simclock.Epoch)
	// CacheBlocks -1 disables the block cache: the hot-path phase must
	// count real device reads, not cache hits.
	fs, err := inode.Format(dev, inode.Options{NInodes: 8192, JournalBlocks: 256, Clock: clock, CacheBlocks: -1})
	if err != nil {
		return nil, err
	}
	auth, err := cryptoshred.NewAuthority(1024)
	if err != nil {
		return nil, err
	}
	guard := lsm.NewGuard()
	vault := cryptoshred.NewVault(auth.PublicKey())
	vault.SetRand(xrand.NewReader(seed))
	store, err := dbfs.Create([]*inode.FS{fs}, guard, vault, clock)
	if err != nil {
		return nil, err
	}
	store.ConfigureColdTier(coldAfter)
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
		return nil, err
	}
	return &sc7Rig{dev: dev, fs: fs, store: store, vault: vault, clock: clock, tok: tok}, nil
}

// runSC7 measures the cold tier end to end: footprint reduction from
// demoting an idle population into compressed per-subject archives, the
// (absence of a) hot-path tax while records stay hot, the device-op cost
// of transparent promotion, re-demotion dedup, and the crypto-shredding
// contract over archives and membrane snapshots.
func runSC7(w io.Writer, p Params) error {
	nSubjects := p.subjects(160, 20)
	const recsPerSubject = 3
	const promoteK = 8
	const readPasses = 2
	coldAfter := time.Hour

	report := SC7Report{Experiment: "SC7", Schema: 1}
	totalRecs := nSubjects * recsPerSubject
	report.Summary.Records = totalRecs

	ops := func(dev *blockdev.Mem) uint64 {
		st := dev.Stats()
		return st.Reads + st.Writes
	}
	row := func(phase, config string, records int, r *sc7Rig, base blockdev.Stats) SC7Row {
		st := r.dev.Stats()
		return SC7Row{
			Phase: phase, Config: config, Records: records,
			UsedBlocks:   r.fs.UsedBlocks(),
			DeviceReads:  st.Reads - base.Reads,
			DeviceWrites: st.Writes - base.Writes,
		}
	}

	// Two rigs, identical seed and workload; only the tier flag differs.
	seedInto := func(r *sc7Rig) ([]string, error) {
		rng := xrand.New(p.Seed + 7)
		subjects := workload.SubjectIDs(nSubjects)
		pdids := make([]string, 0, totalRecs)
		for _, subject := range subjects {
			for k := 0; k < recsPerSubject; k++ {
				pdid, err := r.store.Insert(r.tok, "user", subject, workload.UserRecord(rng, subject), nil)
				if err != nil {
					return nil, err
				}
				pdids = append(pdids, pdid)
			}
		}
		return pdids, nil
	}
	readAllHot := func(r *sc7Rig, pdids []string) error {
		for pass := 0; pass < readPasses; pass++ {
			for _, pdid := range pdids {
				if _, err := r.store.GetRecord(r.tok, pdid); err != nil {
					return err
				}
				if _, err := r.store.GetMembrane(r.tok, pdid); err != nil {
					return err
				}
			}
		}
		return nil
	}

	off, err := newSC7Rig(p.Seed, 0)
	if err != nil {
		return err
	}
	on, err := newSC7Rig(p.Seed, coldAfter)
	if err != nil {
		return err
	}
	baseBlocksOn := on.fs.UsedBlocks()
	offPDIDs, err := seedInto(off)
	if err != nil {
		return err
	}
	onPDIDs, err := seedInto(on)
	if err != nil {
		return err
	}
	report.Rows = append(report.Rows, row("insert", "cold-off", totalRecs, off, blockdev.Stats{}))
	report.Rows = append(report.Rows, row("insert", "cold-on", totalRecs, on, blockdev.Stats{}))
	hotBlocks := on.fs.UsedBlocks() - baseBlocksOn

	// Hot-path band: the same all-hot read workload on both rigs; while
	// nothing demotes, the enabled tier's only cost is touch stamping.
	baseOff, baseOn := off.dev.Stats(), on.dev.Stats()
	if err := readAllHot(off, offPDIDs); err != nil {
		return err
	}
	if err := readAllHot(on, onPDIDs); err != nil {
		return err
	}
	rOff := row("read-hot", "cold-off", totalRecs, off, baseOff)
	rOn := row("read-hot", "cold-on", totalRecs, on, baseOn)
	report.Rows = append(report.Rows, rOff, rOn)
	report.Summary.HotPathOpsBaseline = rOff.DeviceReads + rOff.DeviceWrites
	report.Summary.HotPathOpsColdOn = rOn.DeviceReads + rOn.DeviceWrites
	if report.Summary.HotPathOpsBaseline > 0 {
		report.Summary.HotPathOpsRatio = float64(report.Summary.HotPathOpsColdOn) / float64(report.Summary.HotPathOpsBaseline)
	}

	// Demote the whole (now idle) population and measure the footprint.
	on.clock.Advance(2 * coldAfter)
	base := on.dev.Stats()
	ps, err := on.store.RepackCold(on.tok, on.clock.Now())
	if err != nil {
		return err
	}
	if ps.Demoted != totalRecs {
		return fmt.Errorf("bench: SC7: demoted %d of %d records", ps.Demoted, totalRecs)
	}
	report.Rows = append(report.Rows, row("repack", "cold-on", ps.Demoted, on, base))
	coldBlocks := on.fs.UsedBlocks() - baseBlocksOn
	report.Summary.HotRecordBlocks = hotBlocks
	report.Summary.ColdRecordBlocks = coldBlocks
	if coldBlocks > 0 {
		report.Summary.FootprintRatio = float64(hotBlocks) / float64(coldBlocks)
	}
	report.Summary.ColdBytesSaved = on.store.Stats().ColdBytesSaved

	// Transparent promotion: first read of an archived record pays the
	// rematerialization; count its device ops.
	base = on.dev.Stats()
	for _, pdid := range onPDIDs[:promoteK] {
		if _, err := on.store.GetRecord(on.tok, pdid); err != nil {
			return fmt.Errorf("bench: SC7 promote %s: %w", pdid, err)
		}
	}
	rPromote := row("promote", "cold-on", promoteK, on, base)
	report.Rows = append(report.Rows, rPromote)
	report.Summary.PromotedRecords = promoteK
	report.Summary.PromoteOpsPerRecord = float64(ops(on.dev)-base.Reads-base.Writes) / float64(promoteK)

	// Re-demotion of the promoted (unchanged) records: all dedup, no new
	// archive bytes.
	on.clock.Advance(2 * coldAfter)
	base = on.dev.Stats()
	ps2, err := on.store.RepackCold(on.tok, on.clock.Now())
	if err != nil {
		return err
	}
	report.Rows = append(report.Rows, row("re-repack", "cold-on", ps2.Demoted, on, base))
	report.Summary.RedemotionDedupHits = uint64(ps2.DedupHits)
	report.Summary.RedemotionNewBytes = ps2.StoredBytes

	// Shred-safety: snapshot the membranes, erase one record, verify the
	// archive copy and the snapshot entry decode to nothing and the raw
	// device holds no plaintext.
	victim := onPDIDs[0]
	victimRec, err := on.store.GetRecord(on.tok, victim) // promotes the victim
	if err != nil {
		return err
	}
	victimName := victimRec["name"].S
	if _, err := on.store.SnapshotMembranes(on.tok, "sc7-audit"); err != nil {
		return err
	}
	if _, err := on.store.Erase(on.tok, victim); err != nil {
		return err
	}
	parts, err := on.store.ColdRaw(on.tok, victim)
	if err != nil {
		return err
	}
	_, dataErr := on.vault.Open(victim, parts["data"])
	report.Summary.ArchiveUndecodable = errors.Is(dataErr, cryptoshred.ErrKeyDestroyed)
	_, snapErr := on.store.SnapshotMembrane(on.tok, "sc7-audit", victim)
	report.Summary.SnapshotUndecodable = errors.Is(snapErr, cryptoshred.ErrKeyDestroyed)
	report.Summary.PlaintextResidueHits = bytes.Count(on.dev.ReadRaw(), []byte(victimName))

	rows := make([][]string, 0, len(report.Rows))
	for _, r := range report.Rows {
		rows = append(rows, []string{
			r.Phase, r.Config, strconv.Itoa(r.Records),
			strconv.FormatUint(r.UsedBlocks, 10),
			strconv.FormatUint(r.DeviceReads, 10), strconv.FormatUint(r.DeviceWrites, 10),
		})
	}
	table(w, []string{"phase", "config", "records", "used blocks", "dev reads", "dev writes"}, rows)
	fmt.Fprintf(w, "  cold footprint: %d -> %d record blocks = %.2fx reduction; %d archive bytes saved\n",
		report.Summary.HotRecordBlocks, report.Summary.ColdRecordBlocks,
		report.Summary.FootprintRatio, report.Summary.ColdBytesSaved)
	fmt.Fprintf(w, "  hot-path device ops (tier off/on): %d/%d = %.3fx; promotion: %.1f ops/record over %d records\n",
		report.Summary.HotPathOpsBaseline, report.Summary.HotPathOpsColdOn,
		report.Summary.HotPathOpsRatio, report.Summary.PromoteOpsPerRecord, promoteK)
	fmt.Fprintf(w, "  re-demotion: %d dedup hits, %d new archive bytes; shred-safe: archive=%v snapshot=%v residue=%d\n",
		report.Summary.RedemotionDedupHits, report.Summary.RedemotionNewBytes,
		report.Summary.ArchiveUndecodable, report.Summary.SnapshotUndecodable,
		report.Summary.PlaintextResidueHits)
	fmt.Fprintln(w, "  expectation: >=2x footprint reduction, hot-path ratio within band, bounded promotion cost,")
	fmt.Fprintln(w, "  and a shredded record's archived + snapshotted copies decode to nothing")
	return writeJSON(p, "SC7", &report)
}
