// Package repro is a from-scratch Go reproduction of "rgpdOS: GDPR
// Enforcement By The Operating System" (Tchana et al., DSN 2023,
// arXiv:2205.10929).
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory, the storage commit path, the membrane read path, the
// admission-and-deadlines story, the per-inode locks + block buffer cache,
// the boot-time configuration, the compressed
// cold tier with shred-safe membrane snapshots, the multi-node
// subject router with its durable per-subject copy-node sets, and the
// deterministic macro-workload subsystem with its regulator-grade
// scenario scorecards), the runnable entry points under cmd/ and
// examples/, and the benchmark harness: micro-benchmarks in bench_test.go,
// and the device-op-counted scale experiments SC7-SC9 as golden tests
// (TestSC7Golden in internal/dbfs, TestSC8Golden in internal/cluster,
// TestSC9Golden in internal/workload), each compared exactly with its
// checked-in testdata/*.golden.json. The paper's figures and listings are
// held by exact tests in the owning packages. benchmarks/ holds the
// end-to-end wall-clock workloads.
//
// References:
//
//   - Tchana et al., "rgpdOS: GDPR Enforcement By The Operating System",
//     DSN 2023 (arXiv:2205.10929) — the reproduced paper.
//   - Cutler, Kaashoek, Morris, "The benefits and costs of writing a
//     POSIX kernel in a high-level language", OSDI 2018 — Biscuit, the
//     model for internal/inode's operation scopes (op_begin/op_end) and
//     internal/blockdev's write-back buffer cache.
//   - ext3/JBD2 journaling — the model for internal/wal's group commit
//     (multi-transaction commit records sealed by one flush barrier).
//   - djafs (SNIPPETS.md section 3) — the model for internal/dbfs's
//     compressed cold archives (lazy repacking of cold JSON records). Its
//     hash-based dedup is left out: every archived part is ciphertext
//     under its own record's key, so no two parts are equal.
//   - Shah, Banakar, Shastri, Wasserman, Chidambaram, "Analyzing the
//     Impact of GDPR on Storage Systems" (arXiv:1903.04880) — the
//     GDPR-storage benchmark whose op classes (ordinary traffic
//     interleaved with access, erasure, consent and retention rights
//     traffic) shape internal/workload's SC9 macro scenarios.
package repro
