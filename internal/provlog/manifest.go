package provlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// The tier manifest. MANIFEST is the single source of truth for which
// checkpoint tiers are live: a small CRC'd file listing the tiers in
// recency order (newest first), each entry binding a tier file by name,
// sequence range, row count, and the tier file's own trailing CRC-32C.
// It is published atomically (temp file, fsync, rename, directory fsync)
// after every checkpoint and merge, and garbage collection runs only after
// the publish, so it is the one way Open finds a checkpoint: a directory
// whose MANIFEST is missing or corrupt replays its WAL in full, or, when
// the WAL's prefix has been collected, fails to open (see replayDir).
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
// are dense), and the file's trailing CRC-32C.
type tierRef struct {
	name      string
	firstSeq  int
	watermark int
	count     int
	crc       uint32
}

// tierName names the tier file covering [firstSeq, watermark).
func tierName(firstSeq, watermark int) string {
	return fmt.Sprintf("tier-%016d-%016d.tier", firstSeq, watermark)
}

// listTierFiles returns the names of every tier file in the directory —
// tier-*.tier, and the legacy ckpt-*.ckpt bases older versions wrote —
// unordered. Nothing is parsed; the caller judges files by name.
func listTierFiles(dir string) ([]string, error) {
	var names []string
	for _, pat := range []string{"tier-*.tier", "ckpt-*.ckpt"} {
		paths, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			names = append(names, filepath.Base(p))
		}
	}
	return names, nil
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

// readManifest loads and verifies the directory's MANIFEST. A missing file
// is an error wrapping fs.ErrNotExist.
func readManifest(dir string, fingerprint uint64) ([]tierRef, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	var tiers []tierRef
	if err == nil {
		tiers, err = decodeManifest(data, fingerprint)
	}
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
