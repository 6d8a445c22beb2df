package repro

// One testing.B benchmark per reproduced table/figure (the same code paths
// as cmd/benchfig; see DESIGN.md §3 for the experiment index). Run with:
//
//	go test -bench=. -benchmem
import (
	"io"
	"strconv"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/blockdev"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/gdprdata"
	"repro/internal/kernel"
	"repro/internal/membrane"
	"repro/internal/ps"
	"repro/internal/purpose"
	"repro/internal/simclock"
	"repro/internal/typedsl"
	"repro/internal/workload"
	"repro/internal/xrand"
)

const listing1DSL = `
type user {
  fields {
    name: string,
    pwd: string sensitive,
    year_of_birthdate: int
  };
  view v_name { name };
  view v_ano { age };
  consent {
    purpose1: all,
    purpose2: none,
    purpose3: ano
  };
  collection { web_form: user_form.html };
  origin: subject;
  age: 1Y;
  sensitivity: hight;
}
`

func aliasOpts() typedsl.CompileOptions {
	return typedsl.CompileOptions{FieldAliases: map[string]string{"age": "year_of_birthdate"}}
}

// bootBench boots a machine with n user records, consenting to purpose3.
func bootBench(b *testing.B, n int) (*core.System, []string) {
	b.Helper()
	blocks := uint64(16384)
	for blocks < uint64(n)*24+4096 {
		blocks *= 2
	}
	inodes := uint64(8192)
	for inodes < uint64(n)*8+1024 {
		inodes *= 2
	}
	s, err := core.Boot(core.Options{AuthorityBits: 1024, PDDiskBlocks: blocks, NInodes: inodes})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.DeclareTypesDSL(listing1DSL, aliasOpts()); err != nil {
		b.Fatal(err)
	}
	form := collect.NewWebFormSource("user_form.html")
	s.RegisterSource("user", form)
	rng := xrand.New(1)
	subjects := workload.SubjectIDs(n)
	for _, subject := range subjects {
		form.Submit(subject, workload.UserRecord(rng, subject))
	}
	if _, err := s.Acquire("user", "web_form", subjects); err != nil {
		b.Fatal(err)
	}
	return s, subjects
}

func registerAge(b *testing.B, s *core.System) {
	b.Helper()
	decl := &purpose.Decl{Name: "purpose3", Description: "Compute the age of the input user",
		Basis: purpose.BasisConsent, Reads: []string{"user.year_of_birthdate"}}
	impl := &ded.Func{Name: "compute_age", Purpose: "purpose3",
		DeclaredReads: []string{"user.year_of_birthdate"},
		Fn: func(c *ded.Ctx) (ded.Output, error) {
			yob, err := c.Field("year_of_birthdate")
			if err != nil {
				return ded.Output{}, err
			}
			return ded.Output{NonPD: 2023 - yob.I}, nil
		}}
	if err := s.PS().Register(decl, impl, false); err != nil {
		b.Fatal(err)
	}
}

// --- Figure 1 ---

func BenchmarkFig1LeftRender(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := gdprdata.RenderLeft(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1RightRender(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := gdprdata.RenderRight(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 2 violations ---

// BenchmarkFig2JournalLeak measures the baseline insert+delete+forensic-scan
// cycle that demonstrates the F2V1 violation.
func BenchmarkFig2JournalLeak(b *testing.B) {
	dev := blockdev.MustMem(1 << 14)
	eng, err := baseline.New(dev, simclock.NewSim(simclock.Epoch))
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.CreateTable("user"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	leaks := 0
	for i := 0; i < b.N; i++ {
		secret := "secret-" + strconv.Itoa(i)
		id, err := eng.Insert("user", "s", map[string]string{"f": secret}, map[string]bool{"p": true}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Delete(id); err != nil {
			b.Fatal(err)
		}
		if len(blockdev.FindResidue(dev, []byte(secret))) > 0 {
			leaks++
		}
	}
	if leaks == 0 {
		b.Fatal("baseline leaked nothing; experiment broken")
	}
	b.ReportMetric(float64(leaks)/float64(b.N), "leaks/op")
}

// BenchmarkFig2UAF measures the stale-pointer read in the process-centric
// heap (F2V2).
func BenchmarkFig2UAF(b *testing.B) {
	h := baseline.NewHeap(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := h.Alloc([]byte("pd1"))
		h.Free(p)
		_ = h.Alloc([]byte("pd2"))
		if _, err := h.DerefStale(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 3: the membrane decision itself ---

func BenchmarkFig3MembraneDecide(b *testing.B) {
	m := membrane.New("user/s/1", "user", "s")
	m.SetConsent("purpose3", membrane.Grant{Kind: membrane.GrantView, View: "v_ano"})
	m.CreatedAt = simclock.Epoch
	m.TTL = 365 * 24 * time.Hour
	now := simclock.Epoch.Add(time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Decide("purpose3", now); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 4: the DED pipeline ---

// BenchmarkDEDStages measures one full ps_invoke over a single subject —
// the eight-stage pipeline of Fig. 4 (F4P).
func BenchmarkDEDStages(b *testing.B) {
	s, subjects := bootBench(b, 100)
	registerAge(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subject := subjects[i%len(subjects)]
		if _, err := s.PS().Invoke(ps.InvokeRequest{
			Processing: "purpose3", TypeName: "user", SubjectFilter: subject,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Listings ---

func BenchmarkListing1ParseCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := typedsl.CompileSource(listing1DSL, aliasOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkListing23Invoke measures ps_invoke across the whole user table
// (Listings 2-3, L23).
func BenchmarkListing23Invoke(b *testing.B) {
	s, _ := bootBench(b, 100)
	registerAge(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.PS().Invoke(ps.InvokeRequest{Processing: "purpose3", TypeName: "user"})
		if err != nil {
			b.Fatal(err)
		}
		if res.Processed != 100 {
			b.Fatalf("processed %d", res.Processed)
		}
	}
}

// --- §4 illustrations ---

func BenchmarkRightOfAccess(b *testing.B) {
	s, subjects := bootBench(b, 100)
	registerAge(b, s)
	if _, err := s.PS().Invoke(ps.InvokeRequest{Processing: "purpose3", TypeName: "user"}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Rights().Access(subjects[i%len(subjects)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRightToBeForgotten(b *testing.B) {
	// Fresh records are inserted in pools outside the timed region so
	// every iteration erases a live record; when a pool is exhausted the
	// machine is rebuilt off the clock (the on-disk filesystems are fixed
	// size).
	const pool = 1024
	var (
		s     *core.System
		pdids []string
	)
	rng := xrand.New(2)
	refill := func() {
		b.StopTimer()
		s, _ = bootBench(b, 1)
		tok := s.DEDToken()
		pdids = pdids[:0]
		for i := 0; i < pool; i++ {
			subject := "es" + strconv.Itoa(i)
			pdid, err := s.DBFS().Insert(tok, "user", subject, workload.UserRecord(rng, subject), nil)
			if err != nil {
				b.Fatal(err)
			}
			pdids = append(pdids, pdid)
		}
		b.StartTimer()
	}
	refill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%pool == 0 {
			refill()
		}
		if _, err := s.Rights().EraseRecord(pdids[i%pool]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Overheads (OV1-OV6) ---

func BenchmarkOverheadRgpdOS(b *testing.B) {
	s, subjects := bootBench(b, 100)
	registerAge(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PS().Invoke(ps.InvokeRequest{
			Processing: "purpose3", TypeName: "user", SubjectFilter: subjects[i%len(subjects)],
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverheadBaseline(b *testing.B) {
	dev := blockdev.MustMem(1 << 14)
	eng, err := baseline.New(dev, simclock.NewSim(simclock.Epoch))
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.CreateTable("user"); err != nil {
		b.Fatal(err)
	}
	ids := make([]string, 100)
	for i := range ids {
		id, err := eng.Insert("user", "s"+strconv.Itoa(i), map[string]string{"yob": "1990"},
			map[string]bool{"purpose3": true}, 0)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ProcessToHeap(ids[i%len(ids)], "purpose3"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverheadRawMap(b *testing.B) {
	m := make(map[string]string, 100)
	keys := make([]string, 100)
	for i := range keys {
		keys[i] = "s" + strconv.Itoa(i)
		m[keys[i]] = "1990"
	}
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += len(m[keys[i%len(keys)]])
	}
	if sink == 0 {
		b.Fatal("no work")
	}
}

// BenchmarkMembraneAblation compares the consented pipeline against
// maintenance mode (filter ablated) on the same store (OV2).
func BenchmarkMembraneAblation(b *testing.B) {
	s, subjects := bootBench(b, 100)
	registerAge(b, s)
	b.Run("full-filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.PS().Invoke(ps.InvokeRequest{
				Processing: "purpose3", TypeName: "user", SubjectFilter: subjects[i%len(subjects)],
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("filter-ablated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.PS().Invoke(ps.InvokeRequest{
				Processing: "__builtin_restrict", TypeName: "user",
				SubjectFilter: subjects[i%len(subjects)], Maintenance: true,
				Params: map[string]any{"restricted": false},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKernelIPC compares block IO through the IO-driver kernel against
// direct device access (OV3).
func BenchmarkKernelIPC(b *testing.B) {
	bus := kernel.NewBus(time.Microsecond, time.Nanosecond)
	dev := blockdev.MustMem(256)
	if _, err := kernel.NewBlockDriverKernel(bus, "io.disk0", dev); err != nil {
		b.Fatal(err)
	}
	remote, err := kernel.NewRemoteDevice(bus, "rgpdos", "io.disk0")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, blockdev.BlockSize)
	b.Run("bus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := remote.WriteBlock(uint64(i%256), buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := dev.WriteBlock(uint64(i%256), buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDBFSVsPlainFS contrasts record insertion (OV4).
func BenchmarkDBFSVsPlainFS(b *testing.B) {
	// Both sides cycle a bounded pool so b.N growth cannot exhaust the
	// fixed-size filesystems; the machine is rebuilt off the clock.
	const pool = 1024
	b.Run("dbfs-insert", func(b *testing.B) {
		s, _ := bootBench(b, 1)
		tok := s.DEDToken()
		rng := xrand.New(3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%pool == 0 {
				b.StopTimer()
				s, _ = bootBench(b, 1)
				tok = s.DEDToken()
				b.StartTimer()
			}
			subject := "bs" + strconv.Itoa(i%pool)
			if _, err := s.DBFS().Insert(tok, "user", subject, workload.UserRecord(rng, subject), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plainfs-write", func(b *testing.B) {
		s, _ := bootBench(b, 1)
		payload := []byte(`{"name":"x","yob":1990}`)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// WriteFile replaces in place, so cycling names bounds inodes.
			if err := s.NPD().WriteFile("/r"+strconv.Itoa(i%pool), payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSensitiveSplit measures the extra cost of separately stored
// sensitive fields (OV5).
func BenchmarkSensitiveSplit(b *testing.B) {
	for _, sens := range []bool{false, true} {
		name := "plain-only"
		if sens {
			name = "with-sensitive-field"
		}
		b.Run(name, func(b *testing.B) {
			const pool = 1024
			sch := &dbfs.Schema{
				Name: "rec",
				Fields: []dbfs.Field{
					{Name: "a", Type: dbfs.TypeString, Sensitive: sens},
					{Name: "b", Type: dbfs.TypeInt},
				},
				DefaultConsent: map[string]membrane.Grant{"p": {Kind: membrane.GrantAll}},
			}
			build := func() *core.System {
				s, err := core.Boot(core.Options{AuthorityBits: 1024, PDDiskBlocks: 1 << 16, NInodes: 1 << 15})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.CreateType(sch); err != nil {
					b.Fatal(err)
				}
				return s
			}
			s := build()
			tok := s.DEDToken()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%pool == 0 {
					b.StopTimer()
					s = build()
					tok = s.DEDToken()
					b.StartTimer()
				}
				if _, err := s.DBFS().Insert(tok, "rec", "s"+strconv.Itoa(i%pool), dbfs.Record{
					"a": dbfs.S("ssn"), "b": dbfs.I(int64(i)),
				}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTTLSweep measures the storage-limitation sweeper (OV6).
func BenchmarkTTLSweep(b *testing.B) {
	s, _ := bootBench(b, 100)
	clk, ok := s.SimClock()
	if !ok {
		b.Fatal("sim clock required")
	}
	clk.Advance(366 * 24 * time.Hour) // everything expired
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deleted, err := s.Rights().SweepExpired()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(deleted) != 100 {
			b.Fatalf("first sweep deleted %d", len(deleted))
		}
	}
}

// --- Read path: membrane cache and rights fan-out ---

// BenchmarkMembraneRead measures the DED's ded_load_membrane primitive —
// dbfs.GetMembrane — with the decoded-membrane cache on vs off: a hit
// skips the inode walk, the device reads and the decode.
func BenchmarkMembraneRead(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		cache int
	}{
		{"cache", 0},
		{"nocache", -1},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			s, err := core.Boot(core.Options{
				AuthorityBits: 1024, PDDiskBlocks: 1 << 15, NInodes: 1 << 13,
				MembraneCache: cfg.cache,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.DeclareTypesDSL(listing1DSL, aliasOpts()); err != nil {
				b.Fatal(err)
			}
			tok := s.DEDToken()
			rng := xrand.New(9)
			const n = 64
			pdids := make([]string, 0, n)
			for i := 0; i < n; i++ {
				subject := "ms" + strconv.Itoa(i%16)
				pdid, err := s.DBFS().Insert(tok, "user", subject, workload.UserRecord(rng, subject), nil)
				if err != nil {
					b.Fatal(err)
				}
				pdids = append(pdids, pdid)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pdid := pdids[i%len(pdids)]
				m, err := s.DBFS().GetMembrane(tok, pdid)
				if err != nil {
					b.Fatal(err)
				}
				if m.PDID != pdid {
					b.Fatalf("got membrane of %s", m.PDID)
				}
			}
		})
	}
}

// BenchmarkAccessBatch sweeps the rights engine's per-subject fan-out:
// subject-access reports for 16 subjects at 1 vs 8 workers over 8 per-shard
// FS instances.
func BenchmarkAccessBatch(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			s, err := core.Boot(core.Options{
				AuthorityBits: 1024, PDDiskBlocks: 1 << 16, NInodes: 1 << 14,
				FSInstances: 8, Workers: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.DeclareTypesDSL(listing1DSL, aliasOpts()); err != nil {
				b.Fatal(err)
			}
			tok := s.DEDToken()
			rng := xrand.New(11)
			subjects := workload.SubjectIDs(16)
			for _, subject := range subjects {
				for j := 0; j < 4; j++ {
					if _, err := s.DBFS().Insert(tok, "user", subject, workload.UserRecord(rng, subject), nil); err != nil {
						b.Fatal(err)
					}
				}
			}
			workers := workers
			if err := s.ApplyTuning(core.Tuning{RightsWorkers: &workers}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reps, err := s.Rights().AccessBatch(subjects)
				if err != nil {
					b.Fatal(err)
				}
				if len(reps) != len(subjects) {
					b.Fatalf("got %d reports", len(reps))
				}
			}
		})
	}
}
