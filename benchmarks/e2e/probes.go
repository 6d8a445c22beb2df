package main

import (
	"crypto/rsa"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/admission"
	"repro/internal/audit"
	"repro/internal/blockdev"
	"repro/internal/cryptoshred"
	"repro/internal/dbfs"
	"repro/internal/inode"
	"repro/internal/membrane"
	"repro/internal/purpose"
	"repro/internal/simclock"
	"repro/internal/typedsl"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Probe sizes. Cheap calls (no journal commit) run cheapIters times; calls
// that commit a journal transaction or encrypt under RSA cost tens to
// hundreds of microseconds and run slowIters times, so the whole probe set
// stays within a few seconds. (The smoke test divides both.)
const (
	cheapIters = 10000
	slowIters  = 2000
	probeBatch = 20 // calls per timed batch; the median batch is reported
)

// probeResult is one stand-alone probe: median ns per call and heap
// allocations per call.
type probeResult struct {
	ns     float64
	allocs float64
}

// probe times fn in batches of probeBatch calls and reports the median batch
// per call. untimed, when not nil, runs after every call outside the timing
// to undo the call's effect; the batch is then the sum of per-call timings
// and allocations are sampled around the first call of each batch, so the
// undo step is in neither number.
func probe(iters int, fn func(i int) error, untimed func(i int) error) (probeResult, error) {
	var ms0, ms1 runtime.MemStats
	batches := make([]int64, 0, iters/probeBatch)
	var mallocs, sampled uint64
	if untimed == nil {
		runtime.ReadMemStats(&ms0)
	}
	for i := 0; i < iters; i += probeBatch {
		var total time.Duration
		t0 := time.Now()
		for j := i; j < i+probeBatch; j++ {
			if untimed == nil {
				if err := fn(j); err != nil {
					return probeResult{}, err
				}
				continue
			}
			if j == i {
				runtime.ReadMemStats(&ms0)
			}
			t0 = time.Now()
			err := fn(j)
			total += time.Since(t0)
			if err != nil {
				return probeResult{}, err
			}
			if j == i {
				runtime.ReadMemStats(&ms1)
				mallocs += ms1.Mallocs - ms0.Mallocs
				sampled++
			}
			if err := untimed(j); err != nil {
				return probeResult{}, err
			}
		}
		if untimed == nil {
			total = time.Since(t0)
		}
		batches = append(batches, int64(total))
	}
	if untimed == nil {
		runtime.ReadMemStats(&ms1)
		mallocs, sampled = ms1.Mallocs-ms0.Mallocs, uint64(iters)
	}
	sort.Slice(batches, func(a, b int) bool { return batches[a] < batches[b] })
	return probeResult{
		ns:     float64(batches[len(batches)/2]) / probeBatch,
		allocs: float64(mallocs) / float64(sampled),
	}, nil
}

// probeSet is everything runProbes measures.
type probeSet struct {
	results      map[string]probeResult
	compile      time.Duration // typedsl.CompileSource of the scenario DSL, once
	encodedBytes int           // the default membrane, encoded
}

// recordBytes is the user payload of a record: field names plus values.
func recordBytes(rec dbfs.Record) int {
	n := 0
	for name, v := range rec {
		n += len(name) + len(v.String())
	}
	return n
}

// runProbes times the layers below dbfs and the pure functions, each on a
// scratch instance of its own built with the layer's public constructor and
// sized from the workload: payloads are the scenario's record bytes, tree
// probes use 16 and 1024 children.
func runProbes(sc workload.Scenario, mix workload.MacroMix, authority *rsa.PublicKey, divide int, tr *tracer) (*probeSet, error) {
	set := &probeSet{results: map[string]probeResult{}}
	out := set.results
	// run keeps the first probe error and skips every probe after it, so
	// the probes below read as a list; the error is returned at the end.
	var failed error
	run := func(name string, iters int, fn, untimed func(i int) error) {
		if failed != nil {
			return
		}
		iters = max(iters/divide, probeBatch)
		t0 := time.Now()
		r, err := probe(iters, fn, untimed)
		if err != nil {
			failed = fmt.Errorf("probe %s: %w", name, err)
			return
		}
		tr.add(0, "probe."+name, t0, time.Now(), iters, "probe", "ok")
		out[name] = r
	}
	rng := xrand.New(1)
	payload := make([]byte, recordBytes(sc.Record("s000001", "sx-probe", 0)))
	rng.Bytes(payload)
	block := make([]byte, blockdev.BlockSize)
	rng.Bytes(block)

	// blockdev: raw device, vectored write, cache hit.
	const devBlocks = 4096
	mem, err := blockdev.NewMem(devBlocks, blockdev.DefaultLatency())
	if err != nil {
		return nil, err
	}
	buf := make([]byte, blockdev.BlockSize)
	run("blockdev.read_ns", cheapIters, func(i int) error {
		return mem.ReadBlock(uint64(i*7919)%devBlocks, buf)
	}, nil)
	ns8 := make([]uint64, 8)
	imgs8 := [][]byte{block, block, block, block, block, block, block, block}
	run("blockdev.writev8_ns", cheapIters, func(i int) error {
		for k := range ns8 {
			ns8[k] = uint64(i*8+k) % devBlocks
		}
		return mem.WriteBlocks(ns8, imgs8)
	}, nil)
	cached, err := blockdev.NewCached(mem, inode.DefaultCacheBlocks)
	if err != nil {
		return nil, err
	}
	for n := uint64(0); n < inode.DefaultCacheBlocks; n++ {
		if err := cached.ReadBlock(n, buf); err != nil {
			return nil, err
		}
	}
	run("blockdev.cached_hit_ns", cheapIters, func(i int) error {
		return cached.ReadBlock(uint64(i*31)%inode.DefaultCacheBlocks, buf)
	}, nil)

	// wal: one-block transaction, begin to durable.
	logDev, err := blockdev.NewMem(devBlocks, blockdev.DefaultLatency())
	if err != nil {
		return nil, err
	}
	journal, err := wal.Open(logDev, 0, 256)
	if err != nil {
		return nil, err
	}
	run("wal.commit_ns", slowIters, func(i int) error {
		txn := journal.Begin()
		if err := txn.Write(256+uint64(i)%(devBlocks-256), block); err != nil {
			return err
		}
		return txn.Commit()
	}, nil)

	// inode: lookups and insertions in small and large trees, file IO,
	// allocation and the secure free an erasure pays.
	fsDev, err := blockdev.NewMem(16384, blockdev.DefaultLatency())
	if err != nil {
		return nil, err
	}
	fs, err := inode.Format(fsDev, inode.Options{NInodes: 4096, Clock: simclock.NewSim(simclock.Epoch)})
	if err != nil {
		return nil, err
	}
	for _, size := range []int{16, 1024} {
		tree, err := fs.AllocInode(inode.ModeTree, "probe")
		if err != nil {
			return nil, err
		}
		names := make([]string, size)
		for k := range names {
			names[k] = "rec" + strconv.Itoa(k)
			child, err := fs.AllocInode(inode.ModeFile, "")
			if err != nil {
				return nil, err
			}
			if err := fs.AddChild(tree, names[k], child); err != nil {
				return nil, err
			}
		}
		run("inode.lookup_ns_"+strconv.Itoa(size), cheapIters, func(i int) error {
			_, err := fs.Lookup(tree, names[(i*7)%size])
			return err
		}, nil)
		spare, err := fs.AllocInode(inode.ModeFile, "")
		if err != nil {
			return nil, err
		}
		run("inode.add_child_ns_"+strconv.Itoa(size), slowIters, func(i int) error {
			return fs.AddChild(tree, "extra", spare)
		}, func(i int) error {
			return fs.RemoveChild(tree, "extra")
		})
	}
	file, err := fs.AllocInode(inode.ModeFile, "")
	if err != nil {
		return nil, err
	}
	run("inode.write_at_ns", slowIters, func(i int) error {
		_, err := fs.WriteAt(file, 0, payload)
		return err
	}, nil)
	readBuf := make([]byte, len(payload))
	run("inode.read_at_ns", cheapIters, func(i int) error {
		_, err := fs.ReadAt(file, 0, readBuf)
		return err
	}, nil)
	run("inode.alloc_free_ns", slowIters, func(i int) error {
		ino, err := fs.AllocInode(inode.ModeFile, "")
		if err != nil {
			return err
		}
		return fs.FreeInode(ino)
	}, nil)
	var victim inode.Ino
	prepareVictim := func(int) error {
		var err error
		if victim, err = fs.AllocInode(inode.ModeFile, ""); err != nil {
			return err
		}
		_, err = fs.WriteAt(victim, 0, payload)
		return err
	}
	if err := prepareVictim(0); err != nil {
		return nil, err
	}
	run("inode.secure_free_ns", slowIters, func(i int) error {
		return fs.SecureFreeInode(victim)
	}, prepareVictim)

	// cryptoshred: a fresh key per record, as Insert makes one.
	vault := cryptoshred.NewVault(authority)
	sealed := make([][]byte, slowIters) // every seal is opened, then shredded
	run("cryptoshred.seal_ns", slowIters, func(i int) (err error) {
		sealed[i], err = vault.Seal("probe/"+strconv.Itoa(i), payload)
		return err
	}, nil)
	run("cryptoshred.open_ns", slowIters, func(i int) error {
		_, err := vault.Open("probe/"+strconv.Itoa(i), sealed[i])
		return err
	}, nil)
	run("cryptoshred.shred_ns", slowIters, func(i int) error {
		_, err := vault.Shred("probe/" + strconv.Itoa(i))
		return err
	}, nil)

	// membrane and purpose: the scenario type's default membrane.
	t0 := time.Now()
	schemas, err := typedsl.CompileSource(sc.DSL, typedsl.CompileOptions{})
	if err != nil {
		return nil, err
	}
	set.compile = time.Since(t0)
	m := schemas[0].DefaultMembrane(dbfs.PDID(sc.TypeName, "s000001", 1), "s000001", simclock.Epoch)
	encoded, err := m.Encode()
	if err != nil {
		return nil, err
	}
	set.encodedBytes = len(encoded)
	run("membrane.encode_ns", cheapIters, func(i int) error {
		_, err := m.Encode()
		return err
	}, nil)
	run("membrane.decode_ns", cheapIters, func(i int) error {
		_, err := membrane.Decode(encoded)
		return err
	}, nil)
	run("membrane.decide_ns", cheapIters, func(i int) error {
		// A refusal is a decision too: the never-consented purposes take
		// this path.
		_, _ = m.Decide(mix.QueryPurposes[i%len(mix.QueryPurposes)], simclock.Epoch)
		return nil
	}, nil)
	q := sc.Queries[0]
	decl := &purpose.Decl{Name: q.Purpose, Description: q.Description, Basis: purpose.BasisConsent, Reads: q.Reads}
	run("purpose.match_ns", cheapIters, func(i int) error {
		if !purpose.Match(decl, q.Reads).OK {
			return fmt.Errorf("purpose %s does not match its own reads", q.Purpose)
		}
		return nil
	}, nil)

	// admission and audit.
	gate := admission.New(admission.Options{})
	run("admission.admit_ns", cheapIters, func(i int) error {
		release, err := gate.Admit(q.Purpose)
		if err != nil {
			return err
		}
		release(0)
		return nil
	}, nil)
	trail := audit.NewLog(simclock.NewSim(simclock.Epoch))
	run("audit.append_ns", cheapIters, func(i int) error {
		trail.Append(audit.KindProcessing, q.Purpose, "probe/"+strconv.Itoa(i%64), "s000001", "ok", "")
		return nil
	}, nil)
	return set, failed
}
