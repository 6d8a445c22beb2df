// Package repro is a from-scratch Go reproduction of "rgpdOS: GDPR
// Enforcement By The Operating System" (Tchana et al., DSN 2023,
// arXiv:2205.10929).
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory, the storage commit path, the membrane read path, the
// admission-and-deadlines story, the actor FS core + block buffer cache,
// the tuning API, the content-addressed compressed
// cold tier with shred-safe membrane snapshots, the multi-node
// subject router with its durable cross-node copy ledger, and the
// deterministic macro-workload subsystem with its regulator-grade
// scenario scorecards), the runnable entry points under cmd/ and
// examples/, and the benchmark harness in bench_test.go plus
// cmd/benchfig, whose registry regenerates every reproduced artifact
// and the SC scaling experiments (SC7-SC9); cmd/benchgate holds CI to the
// checked-in BENCH_baseline.json floors. benchmarks/ holds the end-to-end
// wall-clock workloads.
//
// References:
//
//   - Tchana et al., "rgpdOS: GDPR Enforcement By The Operating System",
//     DSN 2023 (arXiv:2205.10929) — the reproduced paper.
//   - Cutler, Kaashoek, Morris, "The benefits and costs of writing a
//     POSIX kernel in a high-level language", OSDI 2018 — Biscuit, the
//     model for internal/inode's per-inode daemon actors and
//     internal/blockdev's write-back buffer cache.
//   - ext3/JBD2 journaling — the model for internal/wal's group commit
//     (multi-transaction commit records sealed by one flush barrier).
//   - djafs (SNIPPETS.md section 3) — the model for internal/coldtier's
//     content-addressed compressed archives (hash-based dedup, lazy
//     repacking of cold JSON records).
//   - Shah, Banakar, Shastri, Wasserman, Chidambaram, "Analyzing the
//     Impact of GDPR on Storage Systems" (arXiv:1903.04880) — the
//     GDPR-storage benchmark whose op classes (ordinary traffic
//     interleaved with access, erasure, consent and retention rights
//     traffic) shape internal/workload's SC9 macro scenarios.
package repro
