package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/baseline"
	"repro/internal/blockdev"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/cryptoshred"
	"repro/internal/dbfs"
	"repro/internal/gdprdata"
	"repro/internal/inode"
	"repro/internal/kernel"
	"repro/internal/lsm"
	"repro/internal/membrane"
	"repro/internal/plainfs"
	"repro/internal/ps"
	"repro/internal/rights"
	"repro/internal/simclock"
	"repro/internal/typedsl"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// --- F1: the motivation figure ---

func runF1L(w io.Writer, _ Params) error {
	if err := gdprdata.CheckShape(); err != nil {
		return err
	}
	return gdprdata.RenderLeft(w)
}

func runF1R(w io.Writer, _ Params) error {
	if err := gdprdata.CheckShape(); err != nil {
		return err
	}
	return gdprdata.RenderRight(w)
}

// --- F2V1: the journal-leak violation ---

func runF2V1(w io.Writer, p Params) error {
	n := p.subjects(200, 20)
	rng := xrand.New(p.Seed + 1)
	subjects := workload.SubjectIDs(n)

	// Baseline: GDPR-aware DB engine over a journaled file FS.
	bdev := blockdev.MustMem(1 << 15)
	eng, err := baseline.New(bdev, simclock.NewSim(simclock.Epoch))
	if err != nil {
		return err
	}
	if err := eng.CreateTable("user"); err != nil {
		return err
	}
	secrets := make(map[string]string, n)
	ids := make([]string, 0, n)
	for _, subject := range subjects {
		secret := "email=" + subject + "@private.example"
		secrets[subject] = secret
		id, err := eng.Insert("user", subject, map[string]string{"contact": secret},
			grantAll("analytics"), 0)
		if err != nil {
			return err
		}
		ids = append(ids, id)
	}
	// Engine-level erasure of half the subjects.
	deleted := 0
	for i, id := range ids {
		if i%2 == 0 {
			if err := eng.Delete(id); err != nil {
				return err
			}
			deleted++
		}
	}
	baselineResidues := 0
	for i, subject := range subjects {
		if i%2 != 0 {
			continue
		}
		if hits := blockdev.FindResidue(bdev, []byte(secrets[subject])); len(hits) > 0 {
			baselineResidues++
		}
	}

	// rgpdOS: same shape of workload through DBFS + crypto-erasure.
	sys, rsubjects, err := seedSystem(n, p.Seed+2, 1.0)
	if err != nil {
		return err
	}
	_ = rng
	rDeleted := 0
	for i, subject := range rsubjects {
		if i%2 == 0 {
			if _, err := sys.Rights().Erase(subject); err != nil {
				return err
			}
			rDeleted++
		}
	}
	rgpdResidues := 0
	for i, subject := range rsubjects {
		if i%2 != 0 {
			continue
		}
		// The stored plaintext was the generated name "(sXXXXXX)".
		if hits := sys.ResidueScan([]byte("(" + subject + ")")); len(hits) > 0 {
			rgpdResidues++
		}
	}

	table(w, []string{"system", "records", "erased", "subjects w/ residue", "RtbF violated"}, [][]string{
		{"baseline (Fig.2)", strconv.Itoa(n), strconv.Itoa(deleted), strconv.Itoa(baselineResidues), fmt.Sprintf("%t", baselineResidues > 0)},
		{"rgpdOS", strconv.Itoa(n), strconv.Itoa(rDeleted), strconv.Itoa(rgpdResidues), fmt.Sprintf("%t", rgpdResidues > 0)},
	})
	fmt.Fprintln(w, "  expectation: baseline > 0 residues (journal + free space), rgpdOS = 0 (only ciphertext on disk)")
	return nil
}

// --- F2V2: process-centric UAF vs data-centric domains ---

func runF2V2(w io.Writer, p Params) error {
	attempts := p.ops(1000, 50)

	// Baseline: stale pointers into a recycled heap read other PD.
	heap := baseline.NewHeap(true)
	leaks := 0
	for i := 0; i < attempts; i++ {
		pd1 := heap.Alloc([]byte("pd1-secret-" + strconv.Itoa(i)))
		heap.Free(pd1)
		_ = heap.Alloc([]byte("pd2-other-subject-" + strconv.Itoa(i)))
		got, err := heap.DerefStale(pd1)
		if err == nil && string(got) != "pd1-secret-"+strconv.Itoa(i) {
			leaks++
		}
	}

	// rgpdOS: zeroized domains make the stale reference fail.
	blocked := 0
	for i := 0; i < attempts; i++ {
		dom := kernel.NewDomain("inv-" + strconv.Itoa(i))
		if err := dom.Put("pd1", []byte("pd1-secret")); err != nil {
			return err
		}
		dom.Zeroize() // DED completed
		if _, err := dom.Get("pd1"); err != nil {
			blocked++
		}
	}

	table(w, []string{"memory model", "stale derefs", "cross-PD leaks", "blocked"}, [][]string{
		{"process-centric heap (baseline)", strconv.Itoa(attempts), strconv.Itoa(leaks), strconv.Itoa(attempts - leaks)},
		{"data-centric domain (rgpdOS)", strconv.Itoa(attempts), "0", strconv.Itoa(blocked)},
	})
	fmt.Fprintln(w, "  expectation: baseline leaks ~100% of recycled cells, rgpdOS blocks 100%")
	return nil
}

// --- F3: membrane enforcement across consent densities ---

func runF3(w io.Writer, p Params) error {
	n := p.subjects(200, 20)
	rows := make([][]string, 0, 5)
	for _, grantProb := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		sys, _, err := seedSystem(n, p.Seed+uint64(grantProb*100), grantProb)
		if err != nil {
			return err
		}
		if err := sys.PS().Register(computeAgeDecl(), computeAgeImpl(), false); err != nil {
			return err
		}
		res, err := sys.PS().Invoke(ps.InvokeRequest{Processing: "purpose3", TypeName: "user"})
		if err != nil {
			return err
		}
		filtered := 0
		for _, k := range sortedKeys(res.Filtered) {
			filtered += res.Filtered[k]
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", grantProb*100),
			strconv.Itoa(n),
			strconv.Itoa(res.Processed),
			strconv.Itoa(filtered),
		})
	}
	table(w, []string{"consent density", "records", "processed", "filtered by membrane"}, rows)
	fmt.Fprintln(w, "  expectation: processed tracks consent density exactly; no record crosses its membrane")
	return nil
}

// --- F4P: DED stage breakdown ---

func runF4P(w io.Writer, p Params) error {
	sizes := []int{1, 10, 100, 1000}
	if p.Small {
		sizes = []int{1, 10, 50}
	}
	rows := make([][]string, 0, len(sizes))
	for _, n := range sizes {
		sys, _, err := seedSystem(n, p.Seed+uint64(n), 1.0)
		if err != nil {
			return err
		}
		if err := sys.PS().Register(computeAgeDecl(), computeAgeImpl(), false); err != nil {
			return err
		}
		res, err := sys.PS().Invoke(ps.InvokeRequest{Processing: "purpose3", TypeName: "user"})
		if err != nil {
			return err
		}
		t := res.Timings
		rows = append(rows, []string{
			strconv.Itoa(n), us(t.Type2Req), us(t.LoadMembrane), us(t.Filter),
			us(t.LoadData), us(t.Execute), us(t.Store + t.BuildMembrane), us(t.Return), us(t.Total()),
		})
	}
	table(w, []string{"records", "type2req us", "load_membrane us", "filter us",
		"load_data us", "execute us", "build+store us", "return us", "total us"}, rows)
	fmt.Fprintln(w, "  expectation: load_membrane + load_data dominate and scale with record count")
	return nil
}

// --- L1: the DSL on Listing 1 ---

func runL1(w io.Writer, _ Params) error {
	decl, err := typedsl.ParseOne(listing1DSL)
	if err != nil {
		return err
	}
	sch, err := typedsl.Compile(decl, aliasOpts())
	if err != nil {
		return err
	}
	reparsed, err := typedsl.ParseOne(typedsl.Format(decl))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  parsed type %q: %d fields, %d views, %d consent rows, %d collection rows\n",
		decl.Name, len(decl.Fields), len(decl.Views), len(decl.Consent), len(decl.Collection))
	fmt.Fprintf(w, "  quirks honoured: consent %q -> view %q; sensitivity %q -> %v; view field \"age\" -> %q\n",
		"ano", sch.DefaultConsent["purpose3"].View, decl.Sensitivity, sch.Sensitivity, "year_of_birthdate")
	fmt.Fprintf(w, "  ttl %q -> %v; origin -> %v; print/parse round trip ok=%t\n",
		decl.Age, sch.DefaultTTL, sch.Origin, reparsed.Name == decl.Name)
	return nil
}

// --- L23: Listings 2-3 programming model ---

func runL23(w io.Writer, p Params) error {
	sys, subjects, err := seedSystem(p.subjects(3, 3), p.Seed+23, 1.0)
	if err != nil {
		return err
	}
	if err := sys.PS().Register(computeAgeDecl(), computeAgeImpl(), false); err != nil {
		return err
	}
	res, err := sys.PS().Invoke(ps.InvokeRequest{Processing: "purpose3", TypeName: "user"})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  ps_invoke(purpose3/compute_age) over %d users: processed=%d outputs=%v\n",
		len(subjects), res.Processed, res.Outputs)
	// purpose2 is "none" in the default consent: an identical function
	// registered under purpose2 processes nothing.
	decl2 := computeAgeDecl()
	decl2.Name = "purpose2"
	impl2 := computeAgeImpl()
	impl2.Purpose = "purpose2"
	if err := sys.PS().Register(decl2, impl2, false); err != nil {
		return err
	}
	res2, err := sys.PS().Invoke(ps.InvokeRequest{Processing: "purpose2", TypeName: "user"})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  ps_invoke(purpose2, consent none): processed=%d filtered=%v (denied by every membrane)\n",
		res2.Processed, res2.Filtered)
	fmt.Fprintln(w, "  expectation: purpose3 processes all, purpose2 processes none")
	return nil
}

// --- IA: right of access ---

func runIA(w io.Writer, p Params) error {
	n := p.subjects(100, 10)
	sys, subjects, err := seedSystem(n, p.Seed+4, 1.0)
	if err != nil {
		return err
	}
	if err := sys.PS().Register(computeAgeDecl(), computeAgeImpl(), false); err != nil {
		return err
	}
	// Build processing history.
	for i := 0; i < 3; i++ {
		if _, err := sys.PS().Invoke(ps.InvokeRequest{Processing: "purpose3", TypeName: "user"}); err != nil {
			return err
		}
	}
	start := time.Now()
	var bytesTotal int
	for _, subject := range subjects {
		report, err := sys.Rights().Access(subject)
		if err != nil {
			return err
		}
		// Size the machine-readable export payload.
		raw, err := rights.ExportJSON(report)
		if err != nil {
			return err
		}
		bytesTotal += len(raw)
	}
	elapsed := time.Since(start)
	table(w, []string{"subjects", "history entries", "avg report bytes", "avg latency us"}, [][]string{{
		strconv.Itoa(n),
		strconv.Itoa(sys.Audit().Len()),
		strconv.Itoa(bytesTotal / n),
		perOp(elapsed, n),
	}})
	fmt.Fprintln(w, "  expectation: machine-readable export with meaningful keys + per-PD processing log (see §4)")
	return nil
}

// --- IF: right to be forgotten ---

func runIF(w io.Writer, p Params) error {
	n := p.subjects(100, 10)
	sys, subjects, err := seedSystem(n, p.Seed+5, 1.0)
	if err != nil {
		return err
	}
	start := time.Now()
	erased := 0
	for _, subject := range subjects {
		rep, err := sys.Rights().Erase(subject)
		if err != nil {
			return err
		}
		erased += len(rep.Erased)
	}
	elapsed := time.Since(start)
	residues := 0
	for _, subject := range subjects {
		if hits := sys.ResidueScan([]byte("(" + subject + ")")); len(hits) > 0 {
			residues++
		}
	}
	// Authority recovery still works for one sample (legal investigation).
	sampleOK := false
	if pdids, err := sys.DBFS().ListBySubject(sys.DEDToken(), subjects[0]); err == nil && len(pdids) > 0 {
		m, err := sys.DBFS().GetMembrane(sys.DEDToken(), pdids[0])
		if err == nil && m.Erased {
			if escrow, err := sys.Vault().Escrow(m.EscrowRef); err == nil {
				if ct, err := sys.DBFS().RawCiphertext(sys.DEDToken(), pdids[0]); err == nil {
					if _, err := sys.Authority().Recover(escrow, ct); err == nil {
						sampleOK = true
					}
				}
			}
		}
	}
	table(w, []string{"subjects", "pd erased", "avg latency us", "plaintext residues", "authority recovery"}, [][]string{{
		strconv.Itoa(n), strconv.Itoa(erased), perOp(elapsed, erased),
		strconv.Itoa(residues), fmt.Sprintf("%t", sampleOK),
	}})
	fmt.Fprintln(w, "  expectation: 0 residues; operator locked out; authority can still decrypt (§4 model)")
	return nil
}

// --- OV1: end-to-end overhead ---

func runOV1(w io.Writer, p Params) error {
	n := p.subjects(100, 10)
	ops := p.ops(500, 50)
	rng := xrand.New(p.Seed + 6)
	subjects := workload.SubjectIDs(n)

	// rgpdOS path: ps_invoke per single-record read.
	sys, _, err := seedSystem(n, p.Seed+6, 1.0)
	if err != nil {
		return err
	}
	if err := sys.PS().Register(computeAgeDecl(), computeAgeImpl(), false); err != nil {
		return err
	}
	picker := workload.NewPicker(rng.Split(), subjects, 1.2)
	start := time.Now()
	for i := 0; i < ops; i++ {
		subject := picker.Pick()
		if _, err := sys.PS().Invoke(ps.InvokeRequest{
			Processing: "purpose3", TypeName: "user", SubjectFilter: subject,
		}); err != nil {
			return err
		}
	}
	rgpdTime := time.Since(start)

	// Baseline path: engine-level consent check + heap load.
	bdev := blockdev.MustMem(1 << 15)
	eng, err := baseline.New(bdev, simclock.NewSim(simclock.Epoch))
	if err != nil {
		return err
	}
	if err := eng.CreateTable("user"); err != nil {
		return err
	}
	ids := make(map[string]string, n)
	for _, subject := range subjects {
		id, err := eng.Insert("user", subject, map[string]string{"yob": "1990"}, grantAll("purpose3"), 0)
		if err != nil {
			return err
		}
		ids[subject] = id
	}
	start = time.Now()
	for i := 0; i < ops; i++ {
		if _, err := eng.ProcessToHeap(ids[picker.Pick()], "purpose3"); err != nil {
			return err
		}
	}
	baseTime := time.Since(start)

	// No-GDPR path: raw in-memory map (the lower bound).
	raw := make(map[string]string, n)
	for _, subject := range subjects {
		raw[subject] = "1990"
	}
	start = time.Now()
	sink := 0
	for i := 0; i < ops; i++ {
		sink += len(raw[picker.Pick()])
	}
	rawTime := time.Since(start)
	_ = sink

	ratio := func(a, b time.Duration) string {
		if b == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1fx", float64(a)/float64(b))
	}
	table(w, []string{"system", "ops", "us/op", "vs baseline", "vs raw map"}, [][]string{
		{"raw map (no GDPR)", strconv.Itoa(ops), perOp(rawTime, ops), "-", "1x"},
		{"baseline DB engine", strconv.Itoa(ops), perOp(baseTime, ops), "1x", ratio(baseTime, rawTime)},
		{"rgpdOS ps_invoke", strconv.Itoa(ops), perOp(rgpdTime, ops), ratio(rgpdTime, baseTime), ratio(rgpdTime, rawTime)},
	})
	fmt.Fprintln(w, "  expectation: rgpdOS pays membrane+DED+crypto overhead; that is the price of OS-level enforcement")
	return nil
}

// --- OV2: membrane cost attribution ---

// runOV2 isolates what the membrane mechanism costs inside the DED
// pipeline: the membrane-load stage (fetching membranes before data — the
// paper's two-request design) and the filter stage (the consent decision).
// There is no "membrane off" configuration in rgpdOS by design, so the
// ablation is attribution: membrane stages vs the rest, swept over consent
// densities (denied records skip data loading, so denial is CHEAPER).
func runOV2(w io.Writer, p Params) error {
	n := p.subjects(200, 20)
	rows := make([][]string, 0, 3)
	for _, grantProb := range []float64{1.0, 0.5, 0.0} {
		sys, _, err := seedSystem(n, p.Seed+7, grantProb)
		if err != nil {
			return err
		}
		if err := sys.PS().Register(computeAgeDecl(), computeAgeImpl(), false); err != nil {
			return err
		}
		res, err := sys.PS().Invoke(ps.InvokeRequest{Processing: "purpose3", TypeName: "user"})
		if err != nil {
			return err
		}
		t := res.Timings
		membraneCost := t.LoadMembrane + t.Filter
		total := t.Total()
		share := 0.0
		if total > 0 {
			share = float64(membraneCost) / float64(total) * 100
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", grantProb*100),
			strconv.Itoa(res.Processed),
			us(t.LoadMembrane), us(t.Filter), us(total),
			fmt.Sprintf("%.1f%%", share),
		})
	}
	table(w, []string{"consent density", "processed", "load_membrane us", "filter us", "pipeline us", "membrane share"}, rows)
	fmt.Fprintln(w, "  expectation: membrane decision is a small, fixed share; low consent density SHRINKS total cost (denied PD skips data load)")
	return nil
}

// --- OV3: purpose-kernel IPC cost ---

func runOV3(w io.Writer, p Params) error {
	n := p.subjects(100, 10)
	rows := make([][]string, 0, 2)
	for _, direct := range []bool{false, true} {
		opts := bootOpts(n)
		opts.DirectIO = direct
		sys, err := core.Boot(opts)
		if err != nil {
			return err
		}
		if err := sys.DeclareTypesDSL(listing1DSL, aliasOpts()); err != nil {
			return err
		}
		form := collect.NewWebFormSource("user_form.html")
		sys.RegisterSource("user", form)
		rng := xrand.New(p.Seed + 8)
		subjects := workload.SubjectIDs(n)
		for _, subject := range subjects {
			form.Submit(subject, workload.UserRecord(rng, subject))
		}
		start := time.Now()
		if _, err := sys.Acquire("user", "web_form", subjects); err != nil {
			return err
		}
		elapsed := time.Since(start)
		bus := sys.Stats().Bus
		name := "split kernels (bus IO)"
		if direct {
			name = "monolithic (direct IO)"
		}
		rows = append(rows, []string{
			name, strconv.Itoa(n), strconv.FormatUint(bus.Messages, 10),
			fmt.Sprintf("%.2f", bus.SimLatency.Seconds()*1e3), us(elapsed),
		})
	}
	table(w, []string{"topology", "inserts", "bus messages", "sim IPC ms", "wall us"}, rows)
	fmt.Fprintln(w, "  expectation: the purpose-kernel split pays one bus hop per block IO; monolithic pays zero")
	return nil
}

// --- OV4: DBFS vs plainfs ---

func runOV4(w io.Writer, p Params) error {
	n := p.subjects(500, 50)
	// DBFS via the full system.
	sys, subjects, err := seedSystem(n, p.Seed+9, 1.0)
	if err != nil {
		return err
	}
	tok := sys.DEDToken()
	start := time.Now()
	for _, subject := range subjects {
		if _, err := sys.DBFS().ListBySubject(tok, subject); err != nil {
			return err
		}
	}
	dbfsLookup := time.Since(start)

	// plainfs with one file per record.
	dev := blockdev.MustMem(1 << 15)
	pfs, err := plainfs.Format(dev, inode.Options{NInodes: 8192, JournalBlocks: 256, Clock: simclock.NewSim(simclock.Epoch)})
	if err != nil {
		return err
	}
	if err := pfs.Mkdir("/users"); err != nil {
		return err
	}
	start = time.Now()
	for i, subject := range subjects {
		if err := pfs.WriteFile("/users/"+subject, []byte("record-"+strconv.Itoa(i))); err != nil {
			return err
		}
	}
	plainInsert := time.Since(start)
	start = time.Now()
	for _, subject := range subjects {
		if _, err := pfs.ReadFile("/users/" + subject); err != nil {
			return err
		}
	}
	plainLookup := time.Since(start)

	stats := sys.Stats().DBFS
	table(w, []string{"filesystem", "records", "insert us/rec", "lookup us/rec"}, [][]string{
		{"DBFS (typed, membraned, encrypted)", strconv.FormatUint(stats.Inserts, 10), "(see OV3 acquire)", perOp(dbfsLookup, n)},
		{"plainfs (files of bytes)", strconv.Itoa(n), perOp(plainInsert, n), perOp(plainLookup, n)},
	})
	fmt.Fprintln(w, "  expectation: DBFS pays typing+membrane+crypto per record; plainfs sees only bytes (and leaks them)")
	return nil
}

// --- OV5: sensitive-field separation ---

func runOV5(w io.Writer, p Params) error {
	n := p.subjects(200, 20)
	rows := make([][]string, 0, 3)
	for sens := 0; sens <= 2; sens++ {
		sys, err := core.Boot(bootOpts(n))
		if err != nil {
			return err
		}
		sch := &dbfs.Schema{
			Name: "rec",
			Fields: []dbfs.Field{
				{Name: "a", Type: dbfs.TypeString, Sensitive: sens >= 1},
				{Name: "b", Type: dbfs.TypeString, Sensitive: sens >= 2},
				{Name: "c", Type: dbfs.TypeInt},
			},
			DefaultConsent: map[string]membrane.Grant{"p": {Kind: membrane.GrantAll}},
		}
		if err := sys.CreateType(sch); err != nil {
			return err
		}
		tok := sys.DEDToken()
		subjects := workload.SubjectIDs(n)
		start := time.Now()
		pdids := make([]string, 0, n)
		for _, subject := range subjects {
			pdid, err := sys.DBFS().Insert(tok, "rec", subject, dbfs.Record{
				"a": dbfs.S("ssn-000-00-0000"), "b": dbfs.S("blood-type-o"), "c": dbfs.I(1),
			}, nil)
			if err != nil {
				return err
			}
			pdids = append(pdids, pdid)
		}
		insert := time.Since(start)
		start = time.Now()
		for _, pdid := range pdids {
			if _, err := sys.DBFS().GetRecord(tok, pdid); err != nil {
				return err
			}
		}
		get := time.Since(start)
		rows = append(rows, []string{
			strconv.Itoa(sens), perOp(insert, n), perOp(get, n),
		})
	}
	table(w, []string{"sensitive fields", "insert us/rec", "get us/rec"}, rows)
	fmt.Fprintln(w, "  expectation: each sensitive split adds one extra inode + one extra data key per record")
	return nil
}

// --- OV6: TTL sweeper ---

func runOV6(w io.Writer, p Params) error {
	n := p.subjects(200, 20)
	rows := make([][]string, 0, 3)
	for _, expireFrac := range []float64{0.25, 0.5, 1.0} {
		sys, err := core.Boot(bootOpts(n))
		if err != nil {
			return err
		}
		if err := sys.DeclareTypesDSL(listing1DSL, aliasOpts()); err != nil {
			return err
		}
		form := collect.NewWebFormSource("user_form.html")
		sys.RegisterSource("user", form)
		clk, ok := sys.SimClock()
		if !ok {
			return fmt.Errorf("bench: sim clock required")
		}
		rng := xrand.New(p.Seed + 11)
		subjects := workload.SubjectIDs(n)
		oldN := int(expireFrac * float64(n))
		acquire := func(batch []string) error {
			for _, subject := range batch {
				form.Submit(subject, workload.UserRecord(rng, subject))
			}
			_, err := sys.Acquire("user", "web_form", batch)
			return err
		}
		// Old batch at the epoch; fresh batch 370 days later. TTL is 1Y,
		// so at sweep time only the old batch has expired.
		if err := acquire(subjects[:oldN]); err != nil {
			return err
		}
		clk.Advance(370 * 24 * time.Hour)
		if oldN < n {
			if err := acquire(subjects[oldN:]); err != nil {
				return err
			}
		}
		start := time.Now()
		deleted, err := sys.Rights().SweepExpired()
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		if len(deleted) != oldN {
			return fmt.Errorf("bench: OV6 swept %d, want %d", len(deleted), oldN)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", expireFrac*100), strconv.Itoa(len(deleted)), us(elapsed), perOp(elapsed, len(deleted)),
		})
	}
	table(w, []string{"expired fraction", "swept", "total us", "us/record"}, rows)
	fmt.Fprintln(w, "  expectation: sweep cost is linear in expired records (membrane scan + physical delete)")
	return nil
}

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
