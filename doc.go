// Package repro is a from-scratch Go reproduction of "BugDoc: Algorithms to
// Debug Computational Processes" (Lourenço, Freire, Shasha; SIGMOD 2020).
//
// The public API lives in package repro/bugdoc; the algorithms and
// substrates live under internal/ (see docs/ARCHITECTURE.md for the
// inventory); the benchmark harness that regenerates every table and
// figure of the paper's evaluation is cmd/bugdoc-bench, with Go
// benchmarks in bench_test.go.
//
// Deeper documentation lives under docs/: docs/ARCHITECTURE.md maps the
// layers (pipeline → provenance → provlog → exec → bugdoc → cmd), the
// write lifecycle, and the invariants each layer owns; docs/ONDISK.md
// specifies the write-ahead log's binary format byte by byte, with the
// crash-recovery rules; docs/CLI.md is the cmd/bugdoc reference with a
// worked kill → resume session.
//
// # Execution-core architecture: interned values and columnar indices
//
// The paper's cost model counts pipeline executions, so the in-process
// bookkeeping around each execution must be near-free. The data layer is
// built around value interning:
//
//   - internal/pipeline: every Space carries a value table mapping each
//     observed Value to a dense per-parameter uint32 code. Instances cache
//     their code vector and a precomputed 64-bit hash, making Equal,
//     DisjointFrom, DiffCount, and memoization probes allocation-free
//     integer work; the string Key() survives only for codecs and display.
//   - internal/provenance: the append-only log is indexed on every write
//     with a map from instance hash to log position (Lookup), per-outcome
//     bitsets, and per-(parameter, value-code) posting bitsets, set in one
//     pass per write that grows each touched bitset at most once, so
//     history queries (FirstFailing, the Shortcut family's good runs
//     through MutuallyDisjointSucceeding, AnySucceedingSatisfying,
//     CountSatisfying, ...) run as bitset algebra instead of log scans.
//     Snapshot exposes a zero-copy read-only view for bulk consumers such
//     as the decision-tree training loop.
//   - internal/dtree and internal/forest: candidate splits come in value
//     order by integer rank: the intern table caches each parameter's
//     code→rank table (NaN after every number), and Space.ValueOrder
//     hands it out with the code→value table as immutable snapshots, so
//     no split search takes a lock or compares a Value. dtree's search is
//     counting-based: every "="/"<=" candidate's gain derives from
//     per-value-code vote counts and their prefix sums, instead of
//     evaluating each candidate against every example, so a node costs
//     O(params × (examples + codes)). It trains on a Grower, an
//     append-only columnar set: one code column per parameter and one
//     succeed and one fail vote per example. A node counts votes over its
//     rows of each column, never reading an Instance, walks each
//     parameter's codes in rank order (a list each build inverts once
//     from the rank table), skipping codes it did not observe, and reads
//     the entropy of counts below 128 from a table filled once by the
//     entropy function itself, so every gain is bit-identical to
//     computing it directly. The Debugging Decision Trees loop keeps one
//     Grower per run and regrows its tree from it after every refuted
//     suspect, reusing the columns and the build scratch, so a regrow
//     allocates only its nodes. forest, the SMAC
//     surrogate, scores each candidate's variance over the node's
//     examples and sorts the observed codes with a rank comparator.
//   - internal/exec: the executor's memoized Evaluate path and the replay
//     HistoricalOracle key off instance hashes, so a memoization hit
//     performs zero allocations.
//
// # Durable provenance: write-ahead log and resumable sessions
//
// Evaluation is deterministic (Definition 2), so every recorded oracle
// call is an asset that future runs can replay for free. internal/provlog
// spills the provenance log to disk as a segmented, CRC-checksummed
// write-ahead log behind the provenance.Sink interface:
//
//   - Records are fixed-width binary — the instance's interned code vector
//     plus an outcome byte and a source id — interleaved with dictionary
//     frames that persist the (parameter, code, value) and (id, source)
//     assignments in order. Replaying the dictionary through Space.Intern
//     reproduces the in-memory code assignment exactly, and every segment
//     header carries a stable fingerprint of the space (names, kinds,
//     domains) so a log is never replayed into the wrong space.
//   - Store.Add appends to the sink under the store's write lock before
//     committing to memory: no record is queryable unless it is durable.
//     Segments rotate at a size threshold.
//   - provlog.Open replays existing segments into a fresh fully-indexed
//     store (position map, outcome bitsets, posting bitsets), truncating a
//     torn final record after a crash to the last intact frame boundary.
//     Replay is batched: each batch of up to 8192 records becomes
//     instances over its own code slab (Space.AdoptInstances; an instance
//     is its code vector) and commits as one Store.AddBatch write, one
//     lock and one index pass, at amortized sub-microsecond per record.
//   - The stack threads durability through bugdoc.WithDurability and
//     bugdoc.ResumeSession, and the cmd/bugdoc -state-dir/-resume flags:
//     each opens the log with provlog.Open and builds the executor over
//     the store it returns (the executor itself owns no storage). A killed
//     run resumes where it left off with zero repeated oracle calls for
//     already-logged instances.
//
// # Batched hypothesis dispatch: one WAL write per round
//
// DDT emits each suspect's verification tests as one set per round (as do
// SMAC's initial design and the experiment harness's samples), and the
// execution stack dispatches a set as a set instead of a loop. Shortcut
// and Stacked Shortcut are sequential: each substitution depends on the
// outcome of the one before, so they send one instance per Evaluate call,
// and each of their executions is a round, and in a durable session a WAL
// write, of its own. The stack:
//
//   - exec.Executor.EvaluateBatch dedupes a hypothesis set against
//     memoized history (and against itself), claims budget in input order
//     (a deterministic partial-result contract), runs the misses on the
//     calling goroutine and up to workers−1 more, and commits every result
//     through one provenance.Store.AddBatch. Evaluate sends a miss through
//     it as a set of one, so every oracle result takes this path.
//   - provenance.Store.AddBatch takes the write lock once, skips the
//     records the store already holds, rejects a batch that lists an
//     instance twice, and hands the sink the rest in one Append per 8192
//     records, so a round is all or nothing; Store.Add hands it one
//     record. The sink runs under the store lock, before the records are
//     committed, so a record is never queryable before it is durable, and
//     a failed append commits none of its records.
//   - internal/provlog.Log.Append frames the batch's records (dictionary
//     entries first) and writes them with one write call — and, with fsync
//     enabled (provlog.WithSync, bugdoc.WithFsync, cmd/bugdoc -fsync), one
//     fsync. A durable round therefore costs one write and one fsync, not
//     one per record (BenchmarkEvaluateBatchDurable).
//   - Recovery is unchanged by batching: a batch is a contiguous run of
//     CRC-framed records, so a crash mid-write truncates to the intact
//     frame prefix — torture-tested at every byte offset of a
//     multi-record batch (internal/provlog).
//
// # The WAL is the state
//
// A state directory holds WAL segments and space.json, nothing else: Open
// and Replay rebuild the store by replaying every segment, so a resume
// costs one pass over the session's history. That pass is cheap next to
// the oracle calls it saves — BenchmarkOpenFullReplay1M replays a
// 1M-record session in about 0.7 s on a 2-core VM, less than one
// execution of a real pipeline — so no checkpoint format stands beside
// the log. bugdoc.Session.Checkpoint fsyncs the log (provlog.Log.Sync),
// which makes the whole state durable. A directory holding a MANIFEST was
// checkpointed by an older version; Open and Replay refuse it without
// touching it.
//
// docs/ONDISK.md specifies the binary format byte by byte with the
// recovery rules; docs/ARCHITECTURE.md diagrams the write lifecycle.
//
// CI gates the hot paths with a benchmark-regression job: cmd/benchdiff
// compares median ns/op of the gated benchmarks against the committed
// BENCH_BASELINE.json and fails the build on >25% regression. A docs
// drift gate (cmd/doclint) fails the build when an exported symbol of one
// of the thirteen packages CI lists (bugdoc and twelve under internal/,
// from provenance and provlog to core and grouptest) lacks a godoc
// comment, or when a backticked reference in README.md or docs/ no
// longer resolves.
package repro
