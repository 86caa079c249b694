package provlog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/pipeline"
)

// MergePolicy schedules tier compaction, LSM-style. After every
// checkpoint the tier list (newest first, with per-tier row counts c[0],
// c[1], ...) is reduced by merging the two newest tiers while either
// bound is violated: more than MaxTiers tiers exist, or the second tier
// is less than SizeRatio times the newest (c[1] < SizeRatio·c[0] — tiers
// must grow at least geometrically with age). Equal-sized delta
// checkpoints therefore coalesce into runs that grow by roughly SizeRatio
// before touching the next tier down, so each record is rewritten
// O(SizeRatio · log total) times over a session instead of once per
// checkpoint — checkpoint cost tracks the delta, not the history. A full
// rewrite down to one tier happens only when the ratio demands it.
type MergePolicy struct {
	// MaxTiers caps how many tiers may exist after a checkpoint. <= 0
	// takes the default (8); 1 reproduces the historic behavior of
	// rewriting the entire history on every checkpoint.
	MaxTiers int
	// SizeRatio is the minimum growth factor between adjacent tiers
	// (older over newer). <= 0 takes the default (4).
	SizeRatio int
}

// DefaultMergePolicy is the policy a log uses when WithMergePolicy is not
// given: at most 8 tiers, each at least 4x the one above it.
var DefaultMergePolicy = MergePolicy{MaxTiers: 8, SizeRatio: 4}

// WithMergePolicy sets the tier-compaction policy (see MergePolicy).
// Zero fields take their defaults.
func WithMergePolicy(p MergePolicy) Option {
	return func(l *Log) { l.merge = p }
}

func (p MergePolicy) normalized() MergePolicy {
	if p.MaxTiers <= 0 {
		p.MaxTiers = DefaultMergePolicy.MaxTiers
	}
	if p.SizeRatio <= 0 {
		p.SizeRatio = DefaultMergePolicy.SizeRatio
	}
	return p
}

// wantMerge reports whether the newest-first tier list violates the
// policy and the two newest tiers should merge.
func (p MergePolicy) wantMerge(tiers []tierRef) bool {
	if len(tiers) < 2 {
		return false
	}
	return len(tiers) > p.MaxTiers || tiers[1].count < p.SizeRatio*tiers[0].count
}

// mergeDue repeatedly merges the two newest tiers while the policy
// demands it, returning the settled tier list. Merges run outside the
// log's mutex (serialized by compactMu like the rest of a compaction);
// each merged tier is written through the same temp-fsync-rename protocol
// as a checkpoint, so a crash mid-merge leaves the inputs intact and the
// half-merged output as sweepable debris. A log closed mid-loop stops
// merging with the tiers merged so far.
func (l *Log) mergeDue(tiers []tierRef) ([]tierRef, error) {
	p := l.merge.normalized()
	for p.wantMerge(tiers) {
		l.mu.Lock()
		closed := l.closed
		l.mu.Unlock()
		if closed {
			return tiers, nil
		}
		var start time.Time
		if l.met != nil {
			start = time.Now()
		}
		merged, size, err := mergeTierFiles(l.dir, tiers[1], tiers[0])
		if err != nil {
			return tiers, err
		}
		l.met.merged(merged.count, size, time.Since(start))
		tiers = append([]tierRef{merged}, tiers[2:]...)
	}
	return tiers, nil
}

// tierInfo is the structural parse of a tier file: section boundaries and
// footer fields, without interning a single dictionary value. The merge
// path works at this level — rows are opaque fixed-width byte strings to
// it — so merging never decodes records.
type tierInfo struct {
	p           int // parameter count
	firstSeq    int
	watermark   int
	count       int
	fingerprint uint64 // the space fingerprint stamped in the footer
	persisted   []int  // dictionary entry count per parameter
	nSources    int
	dict        []byte // the dictionary tables region (params then sources)
	rows        []byte // the fixed-width row region
	crc         uint32 // the file's trailing CRC-32C
}

// parseTierStructure validates a tier file's envelope — checksum, magic
// (v02, or the legacy v01 base), footer, section lengths — and locates its
// regions. Row contents are not inspected; the CRC vouches for them.
func parseTierStructure(path string, data []byte) (*tierInfo, error) {
	if len(data) < ckptHeaderSize+ckptFooterSize {
		return nil, ckptInvalid(path, "file is %d bytes", len(data))
	}
	if crc32.Checksum(data[:len(data)-4], ckptCRC) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, ckptInvalid(path, "checksum mismatch")
	}
	ti := &tierInfo{crc: binary.LittleEndian.Uint32(data[len(data)-4:])}
	var footerSize int
	switch string(data[:8]) {
	case ckptMagic:
		footerSize = ckptFooterSize
	case tierMagic:
		footerSize = tierFooterSize
	default:
		return nil, ckptInvalid(path, "bad magic")
	}
	if len(data) < ckptHeaderSize+footerSize {
		return nil, ckptInvalid(path, "file is %d bytes", len(data))
	}
	ti.p = int(binary.LittleEndian.Uint32(data[8:12]))
	footer := data[len(data)-footerSize:]
	if footerSize == ckptFooterSize {
		if string(footer[:8]) != ckptFooterMagic {
			return nil, ckptInvalid(path, "bad footer magic")
		}
		ti.count = int(binary.LittleEndian.Uint64(footer[8:16]))
		ti.watermark = int(binary.LittleEndian.Uint64(footer[16:24]))
		ti.fingerprint = binary.LittleEndian.Uint64(footer[24:32])
	} else {
		if string(footer[:8]) != tierFooterMagic {
			return nil, ckptInvalid(path, "bad footer magic")
		}
		ti.firstSeq = int(binary.LittleEndian.Uint64(footer[8:16]))
		ti.count = int(binary.LittleEndian.Uint64(footer[16:24]))
		ti.watermark = int(binary.LittleEndian.Uint64(footer[24:32]))
		ti.fingerprint = binary.LittleEndian.Uint64(footer[32:40])
	}
	if ti.firstSeq < 0 || ti.count != ti.watermark-ti.firstSeq {
		return nil, ckptInvalid(path, "%d records for range [%d, %d) (sparse runs are not loadable)",
			ti.count, ti.firstSeq, ti.watermark)
	}
	// Walk the dictionary tables to find where the rows begin.
	body := data[:len(data)-footerSize]
	off := ckptHeaderSize
	// Every parameter's table opens with a 4-byte entry count, so the body
	// bounds the parameter count before anything is sized from it.
	if ti.p < 0 || ti.p > (len(body)-off)/4 {
		return nil, ckptInvalid(path, "%d parameters in a %d-byte file", ti.p, len(data))
	}
	need := func(n int) ([]byte, error) {
		if n < 0 || off+n > len(body) {
			return nil, ckptInvalid(path, "truncated at offset %d", off)
		}
		b := body[off : off+n]
		off += n
		return b, nil
	}
	ti.persisted = make([]int, ti.p)
	dictStart := off
	for i := 0; i < ti.p; i++ {
		b, err := need(4)
		if err != nil {
			return nil, err
		}
		n := int(binary.LittleEndian.Uint32(b))
		ti.persisted[i] = n
		for c := 0; c < n; c++ {
			span, err := dictEntrySpan(body, off)
			if err != nil {
				return nil, ckptInvalid(path, "%v", err)
			}
			off += span
		}
	}
	sb, err := need(4)
	if err != nil {
		return nil, err
	}
	ti.nSources = int(binary.LittleEndian.Uint32(sb))
	for id := 0; id < ti.nSources; id++ {
		lb, err := need(2)
		if err != nil {
			return nil, err
		}
		if _, err := need(int(binary.LittleEndian.Uint16(lb))); err != nil {
			return nil, err
		}
	}
	ti.dict = body[dictStart:off]
	ti.rows = body[off:]
	// Bound the row count by the bytes present before multiplying: a
	// footer count near 2^64 would otherwise wrap onto the section length.
	rowSize := 4*ti.p + 19
	if ti.count < 0 || ti.count > len(ti.rows)/rowSize || len(ti.rows) != ti.count*rowSize {
		return nil, ckptInvalid(path, "record section is %d bytes, want %d rows of %d",
			len(ti.rows), ti.count, rowSize)
	}
	return ti, nil
}

// dictEntrySpan returns the byte length of the dictionary entry (kind
// byte plus payload) starting at buf[off].
func dictEntrySpan(buf []byte, off int) (int, error) {
	if off >= len(buf) {
		return 0, fmt.Errorf("dictionary region truncated at offset %d", off)
	}
	switch buf[off] {
	case byte(pipeline.Ordinal):
		if off+9 > len(buf) {
			return 0, fmt.Errorf("dictionary region truncated at offset %d", off)
		}
		return 9, nil
	case byte(pipeline.Categorical):
		if off+5 > len(buf) {
			return 0, fmt.Errorf("dictionary region truncated at offset %d", off)
		}
		ln := binary.LittleEndian.Uint32(buf[off+1:])
		if ln > maxBlob {
			return 0, fmt.Errorf("categorical dict entry of %d bytes", ln)
		}
		if off+5+int(ln) > len(buf) {
			return 0, fmt.Errorf("dictionary region truncated at offset %d", off)
		}
		return 5 + int(ln), nil
	default:
		return 0, fmt.Errorf("dict entry with invalid kind %d", buf[off])
	}
}

// checkTablePrefix verifies that the older tier's dictionary tables are a
// semantic prefix of the newer's — same entries, in the same order, per
// parameter and for the sources. Tiers carry the cumulative tables at
// their own watermark, so this always holds for tiers cut from one WAL;
// it is re-verified before a merge because the merged tier keeps only the
// newer tables and a mismatch would silently remap the older rows' codes.
func checkTablePrefix(older, newer *tierInfo) error {
	if older.p != newer.p {
		return fmt.Errorf("tiers have %d and %d parameters", older.p, newer.p)
	}
	oOff, nOff := 0, 0
	for i := 0; i < older.p; i++ {
		if older.persisted[i] > newer.persisted[i] {
			return fmt.Errorf("older tier has %d codes for parameter %d, newer has %d",
				older.persisted[i], i, newer.persisted[i])
		}
		oOff += 4
		nOff += 4
		for c := 0; c < newer.persisted[i]; c++ {
			nSpan, err := dictEntrySpan(newer.dict, nOff)
			if err != nil {
				return err
			}
			if c < older.persisted[i] {
				oSpan, err := dictEntrySpan(older.dict, oOff)
				if err != nil {
					return err
				}
				if !bytes.Equal(older.dict[oOff:oOff+oSpan], newer.dict[nOff:nOff+nSpan]) {
					return fmt.Errorf("dictionary entry %d of parameter %d differs between tiers", c, i)
				}
				oOff += oSpan
			}
			nOff += nSpan
		}
	}
	if older.nSources > newer.nSources {
		return fmt.Errorf("older tier has %d sources, newer has %d", older.nSources, newer.nSources)
	}
	oOff += 4
	nOff += 4
	for id := 0; id < older.nSources; id++ {
		oLn := int(binary.LittleEndian.Uint16(older.dict[oOff:]))
		nLn := int(binary.LittleEndian.Uint16(newer.dict[nOff:]))
		if oLn != nLn || !bytes.Equal(older.dict[oOff+2:oOff+2+oLn], newer.dict[nOff+2:nOff+2+nLn]) {
			return fmt.Errorf("source entry %d differs between tiers", id)
		}
		oOff += 2 + oLn
		nOff += 2 + nLn
	}
	return nil
}

// mergeTierFiles merges two adjacent tiers — older covering [a, b), newer
// covering [b, c) — into one tier covering [a, c), durably written
// through the same temp-fsync-rename protocol as a checkpoint (including
// the "tmp-written" and "renamed" crash-stage hooks). The merge is
// byte-level: both row regions are already sorted by (hash, seq), so the
// output rows are a two-way merge of opaque fixed-width rows, and the
// newer tier's cumulative dictionary tables are copied verbatim after
// verifying the older's are a semantic prefix. No record is decoded and
// no dictionary value interned. Returns the merged tier's reference and
// its file size.
func mergeTierFiles(dir string, older, newer tierRef) (tierRef, int, error) {
	if older.watermark != newer.firstSeq {
		return tierRef{}, 0, fmt.Errorf("provlog: merging non-adjacent tiers [%d, %d) and [%d, %d)",
			older.firstSeq, older.watermark, newer.firstSeq, newer.watermark)
	}
	o, oRelease, err := openTier(dir, older)
	if err != nil {
		return tierRef{}, 0, err
	}
	defer oRelease()
	n, nRelease, err := openTier(dir, newer)
	if err != nil {
		return tierRef{}, 0, err
	}
	defer nRelease()
	if o.fingerprint != n.fingerprint {
		return tierRef{}, 0, fmt.Errorf("provlog: merging %s and %s: fingerprints %016x and %016x differ",
			older.name, newer.name, o.fingerprint, n.fingerprint)
	}
	if err := checkTablePrefix(o, n); err != nil {
		return tierRef{}, 0, fmt.Errorf("provlog: merging %s and %s: %w", older.name, newer.name, err)
	}

	firstSeq, watermark := o.firstSeq, n.watermark
	count := o.count + n.count
	rowSize := 4*o.p + 19
	buf := make([]byte, 0, ckptHeaderSize+len(n.dict)+len(o.rows)+len(n.rows)+tierFooterSize)
	buf = append(buf, tierMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(o.p))
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	buf = append(buf, n.dict...)

	// The two-way row merge: rows compare by (hash, seq), both ascending
	// within each tier. A hash tie across tiers with equal code vectors
	// would mean one instance recorded twice — impossible out of a
	// store-fed log, and refused here rather than silently dropped, since
	// dropping a row would leave a sequence gap the loader rejects.
	oi, ni := 0, 0
	oRows, nRows := o.rows, n.rows
	for oi < len(oRows) || ni < len(nRows) {
		var takeOld bool
		switch {
		case oi >= len(oRows):
			takeOld = false
		case ni >= len(nRows):
			takeOld = true
		default:
			oh := binary.LittleEndian.Uint64(oRows[oi:])
			nh := binary.LittleEndian.Uint64(nRows[ni:])
			if oh != nh {
				takeOld = oh < nh
			} else {
				if bytes.Equal(oRows[oi+8:oi+8+4*o.p], nRows[ni+8:ni+8+4*o.p]) {
					return tierRef{}, 0, fmt.Errorf("provlog: merging %s and %s: instance at row hash %016x recorded in both tiers",
						older.name, newer.name, oh)
				}
				// Disjoint sequence ranges: every older seq precedes every
				// newer one, so ties in hash order by recency.
				takeOld = true
			}
		}
		if takeOld {
			buf = append(buf, oRows[oi:oi+rowSize]...)
			oi += rowSize
		} else {
			buf = append(buf, nRows[ni:ni+rowSize]...)
			ni += rowSize
		}
	}

	buf = appendTierFooter(buf, firstSeq, count, watermark, n.fingerprint)

	if err := writeTierFile(dir, buf, firstSeq, watermark); err != nil {
		return tierRef{}, 0, fmt.Errorf("provlog: merge: %w", err)
	}
	return tierRef{
		name:     tierName(firstSeq, watermark),
		firstSeq: firstSeq, watermark: watermark, count: count,
		crc: binary.LittleEndian.Uint32(buf[len(buf)-4:]),
	}, len(buf), nil
}
