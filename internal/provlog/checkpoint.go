package provlog

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/pipeline"
	"repro/internal/provenance"
)

// Checkpoint tiers. A tier is a slice of the log's sealed history folded
// into one sorted run: every record with sequence in [firstSeq, watermark),
// keyed by instance hash, with the dictionary frames that define its codes
// and sources consolidated into dense tables. The live tiers partition the
// sealed prefix [0, W) contiguously, LSM-style — the newest tier is the
// small delta of the last checkpoint, older tiers grow geometrically under
// the MergePolicy — and the MANIFEST names them in recency order. Open
// loads every tier the MANIFEST names and replays only the WAL suffix past
// the newest watermark, so both checkpointing and resuming cost is bounded
// by the delta, not the whole past (see docs/ONDISK.md for the byte-level
// format and the crash-recovery rules).
//
// Every tier, the base (firstSeq 0) included, is written in one format
// under one name, tier-<firstSeq>-<watermark>.tier (all integers
// little-endian; the trailing CRC-32C covers every byte before it, so one
// pass over the file validates everything):
//
//	header  (16)  magic "BDCKPv02", parameter count (uint32), reserved
//	              uint32 (zero)
//	dict          per parameter, in space order: entry count (uint32),
//	              then one entry per code in code order — kind byte, then
//	              ordinal float64 bits or categorical uint32 length+bytes
//	sources       entry count (uint32), then one entry per id in id
//	              order — uint16 length + bytes
//	records       recordCount fixed-width rows sorted by (instance hash,
//	              seq): instance hash (uint64), interned codes (params ×
//	              uint32), outcome byte, source id (uint16), seq (uint64)
//	footer  (44)  magic "BDCK2end", firstSeq (uint64), record count
//	              (uint64), seq watermark (uint64), space fingerprint
//	              (uint64), CRC-32C (uint32) of bytes [0, size-4)
//
// Every tier carries the full cumulative dictionary and source tables as
// of its own watermark (tables are tiny next to rows); an older tier's
// tables are always a prefix of a newer's, which is what lets a merge copy
// the newer tables verbatim and treat rows as opaque bytes.
//
// A run is deduplicated last-write-wins per instance (ties on hash break
// by seq; the survivor is the highest seq). A store-fed log never contains
// two records of one instance, so tiers always carry exactly
// watermark-firstSeq records with dense sequences — the loader verifies
// this and a compactor that would have to drop a sequence refuses to write
// the run instead.
//
// Directories checkpointed by older versions name a legacy base tier,
// ckpt-<watermark>.ckpt, in their MANIFEST. It differs only in the magics
// and the footer, which lacks firstSeq (always 0); parseTierStructure still
// reads it, nothing writes it, and the next checkpoint's GC collects it
// once a merge to sequence 0 supersedes it:
//
//	header  (16)  magic "BDCKPv01", parameter count (uint32), reserved
//	footer  (36)  magic "BDCKPend", record count (uint64), seq watermark
//	              (uint64), space fingerprint (uint64), CRC-32C (uint32)
const (
	ckptMagic       = "BDCKPv01"
	ckptFooterMagic = "BDCKPend"
	ckptHeaderSize  = 16
	ckptFooterSize  = 36
	tierMagic       = "BDCKPv02"
	tierFooterMagic = "BDCK2end"
	tierFooterSize  = 44
)

// ckptCRC is the checksum the checkpoint file uses: CRC-32C (Castagnoli),
// hardware-accelerated on amd64/arm64, unlike the WAL's frame-level IEEE
// polynomial — a checkpoint validates tens of megabytes in one pass.
var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

// WithCompactEvery enables automatic background compaction: whenever n
// records have been logged past the newest checkpoint's watermark, the
// log folds its sealed history into a new checkpoint in the background
// (one compaction at a time; a busy trigger is skipped and retried at the
// next write). n <= 0, the default, leaves compaction to explicit
// Checkpoint calls.
func WithCompactEvery(n int) Option {
	return func(l *Log) { l.compactEvery = n }
}

// ckptTestHook, when set, runs at the named stages of a compaction —
// "tmp-written" (checkpoint bytes durable in the temp file, not yet
// renamed), "renamed" (checkpoint in place, segments not yet collected),
// and "gc" (after the first superseded file was removed). Returning an
// error aborts the compaction at exactly that point, leaving the on-disk
// state a SIGKILL would have left; the crash-during-compaction torture
// tests drive every stage through it.
var ckptTestHook func(stage string) error

func ckptStage(stage string) error {
	if ckptTestHook != nil {
		return ckptTestHook(stage)
	}
	return nil
}

// removeStrayTmp deletes leftover temp files — the debris of a crash
// between writing and renaming a checkpoint tier or a manifest. Called
// with the directory lock held, so no live compactor owns them.
func removeStrayTmp(dir string) {
	for _, pat := range []string{"ckpt-*.tmp", "tier-*.tmp", manifestName + ".tmp*"} {
		if names, err := filepath.Glob(filepath.Join(dir, pat)); err == nil {
			for _, p := range names {
				os.Remove(p)
			}
		}
	}
}

// tierKey is one record's sort key in a tier: its instance hash, then its
// sequence.
type tierKey struct {
	hash uint64
	seq  int32
}

// encodeTierRange renders the snapshot's records with sequences in
// [firstSeq, w) as one tier file. The dictionary tables written are the
// given cumulative state — every code below persisted[i] per parameter
// and the sources in WAL id order — which must cover every code and
// source the range's records reference, and must be table-prefix
// compatible with the tiers below (both hold for the log's own persisted
// counters: dictionaries are append-only and dict frames precede the
// records referencing them).
func encodeTierRange(space *pipeline.Space, fingerprint uint64, sn provenance.Snapshot, firstSeq, w int, persisted []int, sources []string) ([]byte, error) {
	p := space.Len()
	n := w - firstSeq
	sourceID := make(map[string]uint16, len(sources))
	for id, s := range sources {
		sourceID[s] = uint16(id)
	}

	// The sorted run: record order by (instance hash, seq), deduplicated
	// last-write-wins. A duplicate instance cannot come out of a
	// provenance store, and dropping one would leave a sequence gap the
	// loader rejects, so a survivor set smaller than the range refuses to
	// encode. The sort keys are precomputed, so comparisons never touch
	// the records.
	recs := sn.Records()
	order := make([]tierKey, n)
	for i := range order {
		seq := firstSeq + i
		order[i] = tierKey{hash: recs[seq].Instance.Hash(), seq: int32(seq)}
	}
	slices.SortFunc(order, func(a, b tierKey) int {
		if c := cmp.Compare(a.hash, b.hash); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	kept := order[:0]
	for i := 0; i < len(order); i++ {
		if i+1 < len(order) && order[i].hash == order[i+1].hash &&
			recs[order[i].seq].Instance.Equal(recs[order[i+1].seq].Instance) {
			continue // last-write-wins: the higher seq follows in the order
		}
		kept = append(kept, order[i])
	}
	if len(kept) != n {
		return nil, fmt.Errorf("provlog: checkpoint: snapshot holds duplicate instances (%d of %d records survive dedup)",
			len(kept), n)
	}

	rowSize := 4*p + 19
	buf := make([]byte, 0, ckptHeaderSize+n*rowSize+tierFooterSize+4096)
	buf = append(buf, tierMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	for i := 0; i < p; i++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(persisted[i]))
		for c := 0; c < persisted[i]; c++ {
			v := space.InternedValue(i, uint32(c))
			buf = append(buf, byte(v.Kind()))
			if v.Kind() == pipeline.Ordinal {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Num()))
			} else {
				s := v.Str()
				if len(s) > maxBlob {
					return nil, fmt.Errorf("provlog: checkpoint: categorical value of parameter %q is %d bytes, limit %d",
						space.At(i).Name, len(s), maxBlob)
				}
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
				buf = append(buf, s...)
			}
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sources)))
	for _, s := range sources {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
		buf = append(buf, s...)
	}
	for _, k := range kept {
		rec := &recs[k.seq]
		for i := 0; i < p; i++ {
			if c := int(rec.Instance.Code(i)); c >= persisted[i] {
				return nil, fmt.Errorf("provlog: checkpoint: record %d references code %d of parameter %d beyond the persisted dictionary (%d entries)",
					k.seq, c, i, persisted[i])
			}
		}
		id, ok := sourceID[rec.Source]
		if !ok {
			return nil, fmt.Errorf("provlog: checkpoint: record %d references source %q outside the persisted table", k.seq, rec.Source)
		}
		buf = binary.LittleEndian.AppendUint64(buf, rec.Instance.Hash())
		for i := 0; i < p; i++ {
			buf = binary.LittleEndian.AppendUint32(buf, rec.Instance.Code(i))
		}
		buf = append(buf, byte(rec.Outcome))
		buf = binary.LittleEndian.AppendUint16(buf, id)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.Seq))
	}
	return appendTierFooter(buf, firstSeq, len(kept), w, fingerprint), nil
}

// appendTierFooter seals an encoded tier: the footer fields, then the
// CRC-32C of every byte before it.
func appendTierFooter(buf []byte, firstSeq, count, watermark int, fingerprint uint64) []byte {
	buf = append(buf, tierFooterMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(firstSeq))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(count))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(watermark))
	buf = binary.LittleEndian.AppendUint64(buf, fingerprint)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, ckptCRC))
}

// writeTierFile makes an encoded tier durable through atomicPublish (temp
// file, fsync, atomic rename into the canonical name, directory fsync). A
// crash at any point leaves either no tier (a stray temp file Open sweeps
// up) or a complete valid one — never a partial file under the real name.
// The tier becomes live only when a later manifest references it.
func writeTierFile(dir string, buf []byte, firstSeq, watermark int) error {
	err := atomicPublish(dir, "tier-*.tmp", filepath.Join(dir, tierName(firstSeq, watermark)),
		func(tmp *os.File) error {
			_, err := tmp.Write(buf)
			return err
		},
		func() error { return ckptStage("tmp-written") })
	if err != nil {
		return err
	}
	return ckptStage("renamed")
}

// errCkptInvalid marks a checkpoint file that fails validation; Open falls
// back to a full WAL replay when the log's first segment survives.
var errCkptInvalid = errors.New("provlog: invalid checkpoint")

func ckptInvalid(path, format string, args ...any) error {
	return fmt.Errorf("%w %s: %s", errCkptInvalid, filepath.Base(path), fmt.Sprintf(format, args...))
}

// ckptState is what a loaded tier plan seeds the suffix replay with: the
// watermark below which records are already in the store, the dictionary
// state at that point in the stream, and the live tiers (newest first,
// as the MANIFEST names them) the log continues to build on.
type ckptState struct {
	watermark int
	persisted []int
	sources   []string
	sourceID  map[string]uint16
	tiers     []tierRef
}

// minRowsPerDecoder bounds the decode fan-out: a range smaller than this
// is not worth a goroutine, so small checkpoints decode sequentially
// however many cores are available.
const minRowsPerDecoder = 4096

// tierLoad is one decoded tier's contribution to a plan load: its sorted
// (hash, seq) columns and its cumulative dictionary state.
type tierLoad struct {
	run       provenance.SortedRun
	persisted []int
	sources   []string
}

// openTier maps one tier file and checks it against the MANIFEST entry
// naming it: its structure (parseTierStructure, which verifies the
// trailing CRC-32C before any byte is interpreted), its range and its
// checksum. release unmaps the file once nothing references its bytes.
func openTier(dir string, ref tierRef) (ti *tierInfo, release func(), err error) {
	data, release, err := mapFile(filepath.Join(dir, ref.name))
	if err != nil {
		return nil, nil, err
	}
	ti, err = parseTierStructure(ref.name, data)
	if err == nil && (ti.firstSeq != ref.firstSeq || ti.watermark != ref.watermark) {
		err = ckptInvalid(ref.name, "covers [%d, %d), its MANIFEST entry says [%d, %d)",
			ti.firstSeq, ti.watermark, ref.firstSeq, ref.watermark)
	}
	if err == nil && ti.crc != ref.crc {
		err = ckptInvalid(ref.name, "checksum does not match its MANIFEST entry")
	}
	if err != nil {
		release()
		return nil, nil, err
	}
	return ti, release, nil
}

// decodeTierInto decodes one opened tier, placing each record into its
// sequence slot of the shared recs slice and marking its slot in the
// covered bitmap (which spans the whole plan, so a row claiming a sequence
// another tier owns is caught here). Dictionary entries replay through
// Space.Intern with the same code-agreement check the WAL replay performs,
// so a tier cut against a different space cannot silently remap codes.
//
// The row region is fixed-width and every row validates independently, so
// decode splits into par contiguous row ranges, one goroutine each,
// writing disjoint index ranges of the shared column arrays; adoption
// fans out over the same ranges (Space.AdoptInstancesRange), and each
// record lands in its disjoint sequence slot. par <= 1 is the sequential
// degenerate case.
func decodeTierInto(path string, ti *tierInfo, space *pipeline.Space, par int, recs []provenance.Record, covered []uint64) (*tierLoad, error) {
	p := space.Len()
	if ti.p != p {
		return nil, ckptInvalid(path, "tier has %d parameters, space has %d", ti.p, p)
	}
	if ti.fingerprint != space.Fingerprint() {
		return nil, fmt.Errorf("provlog: %s: tier fingerprint %016x does not match space fingerprint %016x (different space?)",
			filepath.Base(path), ti.fingerprint, space.Fingerprint())
	}
	count := ti.count

	// Dictionary tables: intern each code's value and require the space to
	// assign the recorded code, exactly as WAL dict-frame replay does. The
	// plan decodes newest tier first, so the newest (cumulative superset)
	// tables drive interning and the older tiers' table prefixes are
	// re-verified entry by entry.
	off := 0
	dict := ti.dict
	persisted := ti.persisted
	for i := 0; i < p; i++ {
		off += 4 // the entry count, already parsed into persisted[i]
		for c := 0; c < persisted[i]; c++ {
			var v pipeline.Value
			switch dict[off] {
			case byte(pipeline.Ordinal):
				v = pipeline.Ord(math.Float64frombits(binary.LittleEndian.Uint64(dict[off+1:])))
				off += 9
			case byte(pipeline.Categorical):
				ln := int(binary.LittleEndian.Uint32(dict[off+1:]))
				v = pipeline.Cat(string(dict[off+5 : off+5+ln]))
				off += 5 + ln
			default:
				return nil, ckptInvalid(path, "dict entry with invalid kind %d", dict[off])
			}
			if got := space.Intern(i, v); got != uint32(c) {
				return nil, fmt.Errorf("provlog: %s: value %v of parameter %q interned as code %d, tier says %d (tier written against a different space?)",
					filepath.Base(path), v, space.At(i).Name, got, c)
			}
		}
	}
	if ti.nSources > math.MaxUint16+1 {
		return nil, ckptInvalid(path, "%d sources", ti.nSources)
	}
	off += 4 // the source count
	sources := make([]string, ti.nSources)
	for id := range sources {
		ln := int(binary.LittleEndian.Uint16(dict[off:]))
		sources[id] = string(dict[off+2 : off+2+ln])
		off += 2 + ln
	}

	// The record section: fixed-width rows placed by their stored seq — a
	// counting sort back into execution order, undoing the hash ordering
	// without a comparison sort. Everything decodes sequentially in row
	// (hash) order — codes, outcomes, sources, hashes — so the only
	// scattered pass is the final placement into sequence slots. Rows
	// carry their instance hash so the load never re-hashes 10^6 code
	// vectors; the CRC guards integrity, and a deterministic sample of
	// rows is recomputed to catch a systematically wrong writer.
	rowSize := 4*p + 19
	rows := ti.rows
	flat := make([]uint32, count*p)
	outs := make([]pipeline.Outcome, count)
	srcs := make([]uint16, count)
	hashes := make([]uint64, count)
	seqs := make([]int32, count)
	hashStride := count/1024 + 1
	decodeRows := func(lo, hi int) error {
		for r := lo; r < hi; r++ {
			row := rows[r*rowSize : (r+1)*rowSize]
			h := binary.LittleEndian.Uint64(row)
			body := row[8:]
			out := pipeline.Outcome(body[4*p])
			if out != pipeline.Succeed && out != pipeline.Fail && out != pipeline.OutcomeInconclusive {
				return ckptInvalid(path, "row %d has outcome %d", r, body[4*p])
			}
			src := binary.LittleEndian.Uint16(body[4*p+1:])
			if int(src) >= ti.nSources {
				return ckptInvalid(path, "row %d references source %d of %d", r, src, ti.nSources)
			}
			seq := binary.LittleEndian.Uint64(body[4*p+3:])
			if seq < uint64(ti.firstSeq) || seq >= uint64(ti.watermark) {
				return ckptInvalid(path, "row %d has seq %d outside the tier range [%d, %d)",
					r, seq, ti.firstSeq, ti.watermark)
			}
			base := r * p
			for i := 0; i < p; i++ {
				c := binary.LittleEndian.Uint32(body[4*i:])
				if int(c) >= persisted[i] {
					return ckptInvalid(path, "row %d references code %d of parameter %d outside its dictionary", r, c, i)
				}
				flat[base+i] = c
			}
			if r%hashStride == 0 && pipeline.HashCodes(flat[base:base+p]) != h {
				return ckptInvalid(path, "row %d hash does not match its codes", r)
			}
			hashes[r] = h
			seqs[r] = int32(seq)
			outs[r] = out
			srcs[r] = src
		}
		return nil
	}
	workers := par
	if max := count / minRowsPerDecoder; workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}
	// rangeErr runs fn over [0, count) split into workers contiguous
	// ranges, one goroutine each, and reports the error of the lowest
	// errored range — within a range fn stops at its first bad row, so the
	// error surfaced is exactly the one the sequential scan would have hit.
	rangeErr := func(fn func(lo, hi int) error) error {
		if workers == 1 {
			return fn(0, count)
		}
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			lo, hi := g*count/workers, (g+1)*count/workers
			wg.Add(1)
			go func(g, lo, hi int) {
				defer wg.Done()
				errs[g] = fn(lo, hi)
			}(g, lo, hi)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := rangeErr(decodeRows); err != nil {
		return nil, err
	}
	// Sequence slots must be distinct before adoption may fan out: every
	// seq is inside the tier's range (checked per row), so marking the
	// plan-wide bitmap proves the slots disjoint — within this tier and
	// against every tier decoded before it — and the parallel adoption
	// ranges then write disjoint recs slots, race-free by construction.
	for _, s := range seqs {
		if covered[s>>6]&(1<<(uint(s)&63)) != 0 {
			return nil, ckptInvalid(path, "duplicate seq %d", s)
		}
		covered[s>>6] |= 1 << (uint(s) & 63)
	}
	// Code-only instances adopt the decoded matrix wholesale — no Value
	// materialization, no re-hashing — and stream straight into their
	// sequence-ordered slots (the counting sort back into execution
	// order): the index-free load, fanned across the same row ranges.
	if err := rangeErr(func(lo, hi int) error {
		return space.AdoptInstancesRange(flat, hashes, lo, hi, func(r int, in pipeline.Instance) {
			seq := seqs[r]
			recs[seq] = provenance.Record{Seq: int(seq), Instance: in, Outcome: outs[r], Source: sources[srcs[r]]}
		})
	}); err != nil {
		return nil, fmt.Errorf("provlog: %s: %w", filepath.Base(path), err)
	}
	return &tierLoad{
		run:       provenance.SortedRun{Hashes: hashes, Seqs: seqs},
		persisted: persisted,
		sources:   sources,
	}, nil
}

// loadTierPlan loads a MANIFEST's tier plan (newest first, partitioning
// [0, watermark) contiguously) into a fresh store: every tier decodes
// through decodeTierInto, records land in their global sequence slots,
// and the per-tier sorted runs are adopted as the store's base runs
// (provenance.Store.LoadSortedRuns) — no hash index is built; identity
// probes binary-search each run, newest first. Each tier's rows decode on
// up to par goroutines (see decodeTierInto).
//
// Nothing is sized from the plan until every tier file has matched its
// entry: a footer's row count is bounded by the file's bytes, so only
// then does the plan's watermark stand for records that exist.
//
// The newest tier decodes first, so its cumulative dictionary tables
// seed the space and become the replay state; every older tier's tables
// must then be a prefix of them — older entries re-verify against the
// space, and counts may only shrink going back in time.
func loadTierPlan(dir string, plan []tierRef, space *pipeline.Space, par int) (*provenance.Store, *ckptState, error) {
	if len(plan) == 0 {
		return nil, nil, fmt.Errorf("%w: empty tier plan", errCkptInvalid)
	}
	if err := checkTierChain(plan); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errCkptInvalid, err)
	}
	tis := make([]*tierInfo, len(plan))
	for i, ref := range plan {
		ti, release, err := openTier(dir, ref)
		if err != nil {
			return nil, nil, err
		}
		defer release()
		tis[i] = ti
	}
	w := plan[0].watermark
	recs := make([]provenance.Record, w)
	covered := make([]uint64, (w+63)/64)
	runs := make([]provenance.SortedRun, 0, len(plan))
	cs := &ckptState{watermark: w, tiers: plan}
	for i, ref := range plan {
		tl, err := decodeTierInto(ref.name, tis[i], space, par, recs, covered)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			cs.persisted = tl.persisted
			cs.sources = tl.sources
			cs.sourceID = make(map[string]uint16, len(tl.sources))
			for id, s := range tl.sources {
				cs.sourceID[s] = uint16(id)
			}
		} else {
			// Older tiers carry earlier — smaller — cumulative tables.
			for j := range tl.persisted {
				if tl.persisted[j] > cs.persisted[j] {
					return nil, nil, ckptInvalid(ref.name, "has %d dictionary entries for parameter %d, newer tier has %d",
						tl.persisted[j], j, cs.persisted[j])
				}
			}
			if len(tl.sources) > len(cs.sources) {
				return nil, nil, ckptInvalid(ref.name, "has %d sources, newer tier has %d", len(tl.sources), len(cs.sources))
			}
			for id, s := range tl.sources {
				if s != cs.sources[id] {
					return nil, nil, ckptInvalid(ref.name, "source %d is %q, newer tier says %q", id, s, cs.sources[id])
				}
			}
		}
		runs = append(runs, tl.run)
	}
	st := provenance.NewStore(space)
	if err := st.LoadSortedRuns(recs, runs); err != nil {
		return nil, nil, fmt.Errorf("provlog: tier plan ending at %s: %w", filepath.Base(plan[0].name), err)
	}
	return st, cs, nil
}

// Checkpoint folds everything the store has committed past the newest
// tier's watermark into a new tier file — O(delta) work, not O(history) —
// merges adjacent tiers while the MergePolicy demands it, atomically
// publishes the resulting tier list in the MANIFEST, and garbage-collects
// the WAL segments and tier files the manifest supersedes. The log stays
// live throughout: the active segment is sealed (rotated) first, the
// sorted run is built from a store snapshot and written outside the log's
// locks, and appends continue into the new segment while compaction runs.
// Compactions are serialized; concurrent Checkpoint calls queue. A
// checkpoint whose watermark would not advance past the newest tier's is
// a no-op.
//
// Crash safety: every tier (fresh or merged) becomes durable by atomic
// rename after an fsync but goes live only when the manifest rename lands,
// and no file is deleted before the manifest and the directory fsync
// complete — so a kill at any point leaves a directory Open recovers: the
// old manifest's state plus not-yet-collected segments (which the
// skip-aware suffix replay tolerates), or the new manifest's state plus
// debris files the next compaction sweeps.
func (l *Log) Checkpoint() error {
	// Register with the compaction wait group before doing anything, so a
	// concurrent Close drains this call — explicit or background — before
	// it releases the directory lock; past that point no file may be
	// written or renamed into a directory another process can own.
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("provlog: log is closed")
	}
	l.compactWG.Add(1)
	l.mu.Unlock()
	defer l.compactWG.Done()

	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	if l.store == nil {
		return fmt.Errorf("provlog: log has no attached store to checkpoint")
	}
	sn := l.store.Snapshot()
	w := sn.Len()

	l.mu.Lock()
	if err := l.ckptBeginLocked(w); err != nil {
		l.mu.Unlock()
		return err
	}
	if w <= l.lastCkptSeq {
		// Nothing new to fold, but a crash between a predecessor's manifest
		// and its collection may have left superseded files; collect them.
		last := l.lastCkptSeq
		l.mu.Unlock()
		if last == 0 {
			return nil
		}
		// The collectable segments may hold the only durable copies of the
		// store's trial votes (a crash can land between a manifest publish
		// and its GC), so the ledger re-emits into the post-rotation
		// segment before anything is deleted, exactly as on the real path.
		if err := l.reemitTrials(l.store.TrialVotesAll()); err != nil {
			return err
		}
		l.mu.Lock()
		err := l.gcLocked(last)
		l.mu.Unlock()
		return err
	}
	fingerprint := l.fingerprint
	// The new tier covers exactly the records past the newest tier's
	// watermark. Its tables are the log's own persisted counters — the
	// cumulative dictionary state, captured under mu after the snapshot,
	// so they cover every code and source the range references and are a
	// superset-extension of every tier below (suffix replay re-verifies
	// any entries persisted past the snapshot against the WAL frames).
	firstSeq := l.lastCkptSeq
	tiers := append([]tierRef(nil), l.tiers...)
	persisted := append([]int(nil), l.persisted...)
	sources := make([]string, len(l.sourceID))
	for s, id := range l.sourceID {
		sources[int(id)] = s
	}
	l.mu.Unlock()

	// Re-emit the store's trial votes now that the active segment has
	// rotated: every vote written from here on lands at or past the
	// rotation point, which gcLocked never collects, so partial quorums
	// survive the checkpoint no matter where a crash lands. Flaky
	// sessions only — the ledger is empty otherwise and this is free.
	if err := l.reemitTrials(l.store.TrialVotesAll()); err != nil {
		return fmt.Errorf("provlog: checkpoint: re-emitting trial votes: %w", err)
	}

	var ckptStart time.Time
	if l.met != nil {
		ckptStart = time.Now()
	}
	buf, err := encodeTierRange(l.space, fingerprint, sn, firstSeq, w, persisted, sources)
	if err != nil {
		return err
	}
	l.mu.Lock()
	if l.closed {
		// Close won the race while the run was being encoded; nothing has
		// been written yet, so just back out.
		l.mu.Unlock()
		return fmt.Errorf("provlog: log is closed")
	}
	l.mu.Unlock()
	if err := writeTierFile(l.dir, buf, firstSeq, w); err != nil {
		return fmt.Errorf("provlog: checkpoint: %w", err)
	}
	l.met.checkpointed(w, len(buf), time.Since(ckptStart))

	// Settle the tier list under the merge policy, then make it live with
	// one atomic manifest publish. A merge failure does not lose the
	// checkpoint: the unmerged tiers are all valid, so they publish as-is
	// and the error surfaces after the state is safe.
	tiers = append([]tierRef{{
		name:      tierName(firstSeq, w),
		firstSeq:  firstSeq,
		watermark: w,
		count:     w - firstSeq,
		crc:       binary.LittleEndian.Uint32(buf[len(buf)-4:]),
	}}, tiers...)
	tiers, mergeErr := l.mergeDue(tiers)

	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	var pubErr error
	if closed {
		// The log was closed while the tier was being written; the renames
		// already made the files durable, but the directory must not be
		// mutated further — the flock may already be released. The old
		// manifest stays authoritative; the unreferenced files are debris.
		pubErr = nil
	} else {
		pubErr = publishManifest(l.dir, fingerprint, tiers)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if pubErr != nil {
		// The on-disk manifest still names the previous tiers, so the
		// in-memory state must not advance past it: the files just written
		// are left as debris (a retry with the same watermark renames over
		// them; a later success sweeps them) and nothing is collected — a
		// crash now must not strand the manifest referencing deleted files.
		return fmt.Errorf("provlog: checkpoint: %w", pubErr)
	}
	if w > l.lastCkptSeq {
		l.lastCkptSeq = w
	}
	l.tiers = tiers
	l.met.tierCount(len(tiers))
	if mergeErr == nil {
		l.compactFailures = 0
	}
	if l.closed {
		return mergeErr
	}
	if err := l.gcLocked(w); err != nil {
		return err
	}
	return mergeErr
}

// ckptBeginLocked prepares the log for a compaction covering records below
// w: it refuses closed/poisoned logs and seals the active segment so the
// compactor only ever reads immutable files. The caller holds l.mu.
func (l *Log) ckptBeginLocked(w int) error {
	if l.closed {
		return fmt.Errorf("provlog: log is closed")
	}
	if l.broken != nil {
		return l.broken
	}
	if w <= l.lastCkptSeq {
		return nil // caller no-ops
	}
	if l.size > headerSize {
		return l.rotate(l.nextSeq)
	}
	return nil
}

// gcLocked removes WAL segments whose every record lies below the
// watermark w and tier files the live tier list does not reference —
// superseded tiers (legacy ckpt-*.ckpt bases included), merged-away
// inputs, and the debris of crashed compactions. Segments are deleted
// oldest-first and only while their successor's header proves full
// coverage (a segment's records end where the next segment's begin); the
// active segment never qualifies. Tier files are judged by name alone
// against l.tiers, which the manifest already names durably — everything
// else is unreachable by the loader. The caller holds l.mu.
func (l *Log) gcLocked(w int) error {
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i].index >= l.segIndex {
			break
		}
		next, err := readSegmentFirstSeq(segs[i+1].path)
		if err != nil || next > uint64(w) {
			break
		}
		if err := ckptStage("gc"); err != nil {
			return err
		}
		if err := os.Remove(segs[i].path); err != nil {
			return err
		}
		l.met.segmentGCd()
	}
	if len(l.tiers) == 0 {
		return syncDir(l.dir)
	}
	live := make(map[string]bool, len(l.tiers))
	for _, t := range l.tiers {
		live[t.name] = true
	}
	names, err := listTierFiles(l.dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if live[name] {
			continue
		}
		if err := ckptStage("gc"); err != nil {
			return err
		}
		if err := os.Remove(filepath.Join(l.dir, name)); err != nil {
			return err
		}
		l.met.segmentGCd()
	}
	return syncDir(l.dir)
}

// readSegmentFirstSeq reads and validates one segment's header and returns
// the sequence of its first record.
func readSegmentFirstSeq(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	hb := make([]byte, headerSize)
	if _, err := f.ReadAt(hb, 0); err != nil {
		return 0, errTorn
	}
	h, err := decodeHeader(hb)
	if err != nil {
		return 0, err
	}
	return h.firstSeq, nil
}

// maybeCompactLocked spawns a background compaction when WithCompactEvery's
// threshold is crossed. At most one compaction runs at a time; a trigger
// that finds one in flight is dropped and re-evaluated at the next write.
// The caller holds l.mu.
func (l *Log) maybeCompactLocked() {
	if l.compactEvery <= 0 || l.closed || l.broken != nil || l.compacting {
		return
	}
	// Consecutive background failures back the trigger off exponentially
	// (in units of the configured period), so a persistently failing
	// compaction — a full disk, say — does not re-encode the whole
	// history on every write. Any success resets the backoff.
	scale := 1
	if f := l.compactFailures; f > 0 {
		if f > 16 {
			f = 16
		}
		scale = 1 << f
	}
	if l.nextSeq-l.lastCkptSeq < l.compactEvery*scale {
		return
	}
	l.compacting = true
	l.compactWG.Add(1)
	go func() {
		defer l.compactWG.Done()
		// A background failure loses nothing — the WAL is still complete —
		// so it is not fatal: the trigger retries with backoff, and an
		// explicit Checkpoint still surfaces the error to the caller.
		err := l.Checkpoint()
		l.mu.Lock()
		l.compacting = false
		if err != nil {
			l.compactFailures++
		}
		l.mu.Unlock()
	}()
}
