package provlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The tier manifest. MANIFEST is the single source of truth for which
// checkpoint tiers are live: a small CRC'd file listing the tiers in
// recency order (newest first), each entry binding a tier file by name,
// sequence range, row count, and the tier file's own trailing CRC-32C.
// It is published atomically (temp file, fsync, rename, directory fsync)
// after every checkpoint and merge, replacing the historic "newest valid
// checkpoint wins" directory scan; a directory without a MANIFEST — a
// pre-tiering state dir, or disaster recovery after manifest loss — falls
// back to reconstructing tier chains from the files' names (see
// tierPlans).
//
// Layout (all integers little-endian):
//
//	magic        "BDMANv01" (8 bytes)
//	fingerprint  space fingerprint (uint64)
//	tier count   uint32
//	tiers        newest first: name length (uint16) + name bytes,
//	             firstSeq (uint64), watermark (uint64), row count
//	             (uint64), tier file CRC-32C (uint32)
//	CRC-32C      uint32 over every prior byte
const (
	manifestMagic = "BDMANv01"
	manifestName  = "MANIFEST"
)

// tierRef names one live checkpoint tier: the file (relative to the log
// directory) holding the sorted run of records with sequences in
// [firstSeq, watermark), its row count (always watermark-firstSeq — runs
// are dense), and the file's trailing CRC-32C. crc 0 means "unknown":
// references reconstructed from file names rather than a manifest carry
// no binding and the file's own checksum is the only integrity check.
type tierRef struct {
	name      string
	firstSeq  int
	watermark int
	count     int
	crc       uint32
}

// tierPath names a tier file. Base tiers — firstSeq 0, covering the whole
// prefix — keep the historic single-checkpoint name (ckpt-<watermark>.ckpt,
// byte-compatible with pre-tiering readers); delta tiers carry both range
// bounds in the name so a chain is reconstructible without opening a file.
func tierPath(dir string, firstSeq, watermark int) string {
	if firstSeq == 0 {
		return ckptPath(dir, watermark)
	}
	return filepath.Join(dir, fmt.Sprintf("tier-%016d-%016d.tier", firstSeq, watermark))
}

// listTierFiles returns every tier-shaped file in the directory — legacy
// ckpt-*.ckpt base tiers and tier-*.tier delta tiers — as unbound
// tierRefs (crc 0), unordered. Only names are parsed; validity is decided
// at load time.
func listTierFiles(dir string) ([]tierRef, error) {
	cks, err := listCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	refs := make([]tierRef, 0, len(cks))
	for _, ck := range cks {
		refs = append(refs, tierRef{
			name: filepath.Base(ck.path), firstSeq: 0,
			watermark: ck.watermark, count: ck.watermark,
		})
	}
	names, err := filepath.Glob(filepath.Join(dir, "tier-*.tier"))
	if err != nil {
		return nil, err
	}
	for _, p := range names {
		base := filepath.Base(p)
		body := strings.TrimSuffix(strings.TrimPrefix(base, "tier-"), ".tier")
		lo, hi, ok := strings.Cut(body, "-")
		if !ok {
			return nil, fmt.Errorf("provlog: unrecognized tier file %q", base)
		}
		first, err1 := strconv.ParseUint(lo, 10, 63)
		wm, err2 := strconv.ParseUint(hi, 10, 63)
		if err1 != nil || err2 != nil || first >= wm {
			return nil, fmt.Errorf("provlog: unrecognized tier file %q", base)
		}
		refs = append(refs, tierRef{
			name: base, firstSeq: int(first),
			watermark: int(wm), count: int(wm - first),
		})
	}
	return refs, nil
}

// encodeManifest renders the manifest bytes for the given tier list
// (newest first).
func encodeManifest(fingerprint uint64, tiers []tierRef) []byte {
	buf := make([]byte, 0, 24+len(tiers)*64)
	buf = append(buf, manifestMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, fingerprint)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tiers)))
	for _, t := range tiers {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(t.name)))
		buf = append(buf, t.name...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.firstSeq))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.watermark))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.count))
		buf = binary.LittleEndian.AppendUint32(buf, t.crc)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, ckptCRC))
}

// minManifestEntry is the smallest encoded manifest entry: the name length,
// a one-byte name, three uint64 fields and the tier's CRC.
const minManifestEntry = 2 + 1 + 3*8 + 4

// decodeManifest parses and verifies manifest bytes: checksum, magic,
// fingerprint, and that the tier entries form a contiguous recency chain
// partitioning [0, watermark) — newest first, each tier beginning exactly
// where the next (older) one ends, the oldest anchored at sequence 0.
func decodeManifest(data []byte, fingerprint uint64) ([]tierRef, error) {
	if len(data) < 24 {
		return nil, fmt.Errorf("manifest is %d bytes", len(data))
	}
	if crc32.Checksum(data[:len(data)-4], ckptCRC) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, fmt.Errorf("manifest checksum mismatch")
	}
	if string(data[:8]) != manifestMagic {
		return nil, fmt.Errorf("bad manifest magic")
	}
	if got := binary.LittleEndian.Uint64(data[8:16]); got != fingerprint {
		return nil, fmt.Errorf("manifest fingerprint %016x does not match space fingerprint %016x (different space?)", got, fingerprint)
	}
	n := int(binary.LittleEndian.Uint32(data[16:20]))
	off := 20
	body := data[:len(data)-4]
	// Size nothing from the header's count before the body proves it: an
	// entry is at least minManifestEntry bytes.
	if n < 0 || n > (len(body)-off)/minManifestEntry {
		return nil, fmt.Errorf("manifest names %d tiers in %d bytes of entries", n, len(body)-off)
	}
	tiers := make([]tierRef, 0, n)
	for i := 0; i < n; i++ {
		if off+2 > len(body) {
			return nil, fmt.Errorf("manifest truncated at entry %d", i)
		}
		nameLen := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if off+nameLen+28 > len(body) {
			return nil, fmt.Errorf("manifest truncated at entry %d", i)
		}
		t := tierRef{name: string(body[off : off+nameLen])}
		off += nameLen
		t.firstSeq = int(binary.LittleEndian.Uint64(body[off:]))
		t.watermark = int(binary.LittleEndian.Uint64(body[off+8:]))
		t.count = int(binary.LittleEndian.Uint64(body[off+16:]))
		t.crc = binary.LittleEndian.Uint32(body[off+24:])
		off += 28
		if t.name == "" || filepath.Base(t.name) != t.name {
			return nil, fmt.Errorf("manifest entry %d has invalid name %q", i, t.name)
		}
		tiers = append(tiers, t)
	}
	if off != len(body) {
		return nil, fmt.Errorf("manifest has %d trailing bytes", len(body)-off)
	}
	if err := checkTierChain(tiers); err != nil {
		return nil, err
	}
	return tiers, nil
}

// checkTierChain verifies a newest-first tier list partitions [0, W)
// contiguously with dense per-tier counts.
func checkTierChain(tiers []tierRef) error {
	for i, t := range tiers {
		if t.firstSeq < 0 || t.watermark <= t.firstSeq {
			return fmt.Errorf("tier %s covers [%d, %d)", t.name, t.firstSeq, t.watermark)
		}
		if t.count != t.watermark-t.firstSeq {
			return fmt.Errorf("tier %s holds %d rows for range [%d, %d)", t.name, t.count, t.firstSeq, t.watermark)
		}
		if i+1 < len(tiers) && tiers[i+1].watermark != t.firstSeq {
			return fmt.Errorf("tier %s begins at %d but its predecessor ends at %d",
				t.name, t.firstSeq, tiers[i+1].watermark)
		}
	}
	if len(tiers) > 0 && tiers[len(tiers)-1].firstSeq != 0 {
		return fmt.Errorf("oldest tier %s begins at %d, not 0",
			tiers[len(tiers)-1].name, tiers[len(tiers)-1].firstSeq)
	}
	return nil
}

// readManifest loads and verifies the directory's MANIFEST, returning nil
// tiers (no error) when the file does not exist.
func readManifest(dir string, fingerprint uint64) ([]tierRef, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	tiers, err := decodeManifest(data, fingerprint)
	if err != nil {
		return nil, fmt.Errorf("provlog: %s: %w", manifestName, err)
	}
	return tiers, nil
}

// publishManifest atomically replaces the directory's MANIFEST with one
// naming the given tiers: temp file, fsync, rename, directory fsync. A
// crash at any point leaves either the old manifest or the new one, never
// a partial file; checkpoints and merges become visible only here.
func publishManifest(dir string, fingerprint uint64, tiers []tierRef) error {
	buf := encodeManifest(fingerprint, tiers)
	err := atomicPublish(dir, manifestName+".tmp*", filepath.Join(dir, manifestName),
		func(tmp *os.File) error {
			_, err := tmp.Write(buf)
			return err
		}, nil)
	if err != nil {
		return err
	}
	return ckptStage("manifest")
}

// tierPlans returns the candidate tier plans for opening dir, in the
// order they should be attempted: the MANIFEST's plan first (when present
// and valid), then chains reconstructed from tier file names — for every
// achievable watermark, descending, a coarse chain (preferring the widest
// tier at each boundary) and, when different, a fine chain (preferring
// the narrowest) — so a corrupted merge output still falls back to its
// surviving inputs, and a legacy directory of bare ckpt files degrades to
// exactly the historic newest-valid-checkpoint-wins scan. Tier files not
// referenced by the manifest are crash debris from an unpublished
// checkpoint; they only participate in the name-derived fallbacks.
func tierPlans(dir string, fingerprint uint64) ([][]tierRef, error) {
	var plans [][]tierRef
	manifest, err := readManifest(dir, fingerprint)
	if err != nil {
		// A corrupt manifest is a disk-level fault (publication is atomic);
		// fall through to the name-derived chains rather than refusing to
		// open.
		manifest = nil
	}
	if len(manifest) > 0 {
		plans = append(plans, manifest)
	}
	refs, lerr := listTierFiles(dir)
	if lerr != nil {
		return nil, lerr
	}
	seen := map[string]bool{}
	if len(manifest) > 0 {
		seen[planKey(manifest)] = true
	}
	for _, w := range tierWatermarks(refs) {
		for _, widest := range []bool{true, false} {
			chain := chainFor(refs, w, widest)
			if chain == nil {
				continue
			}
			if k := planKey(chain); !seen[k] {
				seen[k] = true
				plans = append(plans, chain)
			}
		}
	}
	return plans, nil
}

// tierWatermarks returns the distinct watermarks present in refs,
// descending.
func tierWatermarks(refs []tierRef) []int {
	set := map[int]bool{}
	for _, r := range refs {
		set[r.watermark] = true
	}
	ws := make([]int, 0, len(set))
	for w := range set {
		ws = append(ws, w)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ws)))
	return ws
}

// chainFor greedily builds a newest-first tier chain ending at watermark
// w and anchored at sequence 0, or nil when no complete chain exists. At
// each boundary it prefers the widest (smallest firstSeq) or narrowest
// (largest firstSeq) candidate tier.
func chainFor(refs []tierRef, w int, widest bool) []tierRef {
	var chain []tierRef
	for w > 0 {
		best := -1
		for i, r := range refs {
			if r.watermark != w {
				continue
			}
			if best < 0 ||
				(widest && r.firstSeq < refs[best].firstSeq) ||
				(!widest && r.firstSeq > refs[best].firstSeq) {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		chain = append(chain, refs[best])
		w = refs[best].firstSeq
	}
	return chain
}

func planKey(tiers []tierRef) string {
	names := make([]string, len(tiers))
	for i, t := range tiers {
		names[i] = t.name
	}
	return strings.Join(names, "|")
}
