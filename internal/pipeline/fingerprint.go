package pipeline

import "fmt"

// Fingerprint returns a stable 64-bit identity of the space's structure:
// parameter names, kinds, and declared domains, hashed in space order with
// FNV-1a over a canonical byte rendering. Unlike interned codes — runtime
// artifacts assigned in observation order — the fingerprint depends only on
// how the space was declared, so it is identical across processes that
// construct the space from the same spec. The durable provenance log stores
// it in every segment header and refuses to replay a log into a space with
// a different fingerprint.
//
// The fingerprint is computed from the current domains: AddToDomain changes
// it. Durable consumers capture it once, when the log is created, before
// any expansion.
func (s *Space) Fingerprint() uint64 {
	h := uint64(fnvOffset64)
	byte1 := func(b byte) { h = (h ^ uint64(b)) * fnvPrime64 }
	str := func(x string) {
		for i := 0; i < len(x); i++ {
			byte1(x[i])
		}
		byte1(0)
	}
	for _, p := range s.params {
		str(p.Name)
		byte1(byte(p.Kind))
		for _, v := range p.Domain {
			str(v.key())
		}
		byte1(0xff)
	}
	return h
}

// Intern assigns (or retrieves) the dense code of v for parameter i. It is
// how the durable provenance log replays its value dictionary: dictionary
// entries are applied in their original assignment order, so a freshly
// constructed identical space reproduces the recorded codes exactly, and a
// mismatch between the returned and recorded code signals that the space
// and the log diverged.
func (s *Space) Intern(i int, v Value) uint32 { return s.codeOf(i, v) }

// AdoptInstances builds one instance per row of flat, a row-major matrix
// of Len interned codes per instance, and calls emit once per row, in row
// order — bulk loaders (WAL replay) place the instances straight into
// their own tables. Every row adopts its slice of flat as its code vector:
// the caller hands over ownership and must not modify flat afterwards.
// hashes[r] must be the identity hash of row r (HashCodes); bulk loaders
// compute it while decoding, and this constructor trusts it rather than
// hashing again. So adopting a row costs its code validation and nothing
// else: no allocation and no hashing. Every code must already be assigned
// (see NumCodes).
func (s *Space) AdoptInstances(flat []uint32, hashes []uint64, emit func(r int, in Instance)) error {
	p := s.Len()
	if p == 0 || len(flat)%p != 0 {
		return fmt.Errorf("pipeline: %d codes over %d parameters", len(flat), p)
	}
	n := len(flat) / p
	if len(hashes) != n {
		return fmt.Errorf("pipeline: %d hashes for %d instances", len(hashes), n)
	}
	limits := make([]uint32, p)
	for i := 0; i < p; i++ {
		limits[i] = uint32(s.intern.size(i))
	}
	for r := 0; r < n; r++ {
		row := flat[r*p : (r+1)*p : (r+1)*p]
		for i, c := range row {
			if c >= limits[i] {
				return fmt.Errorf("pipeline: parameter %q has no interned code %d",
					s.At(i).Name, c)
			}
		}
		emit(r, Instance{space: s, codes: row, hash: hashes[r]})
	}
	return nil
}
