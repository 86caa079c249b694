package pipeline

// InstanceMap is a hash map keyed by Instance identity: entries are
// bucketed by the precomputed Hash and confirmed with Equal, so probes
// perform no allocations and no string work. It centralizes the
// "hash bucket + Equal collision confirm" invariant for every component
// that memoizes per-instance state (the provenance store's trial votes,
// the replay oracle, test-sampling dedup). The zero value is not usable; call
// NewInstanceMap. Not safe for concurrent use; callers lock.
//
// The first entry of each hash bucket lives inline in the primary map;
// only genuine 64-bit hash collisions spill into overflow buckets, so the
// common-case Put allocates nothing beyond map growth.
type InstanceMap[V any] struct {
	prim map[uint64]instanceEntry[V]
	over map[uint64][]instanceEntry[V] // lazily allocated; collisions are rare
	n    int
}

type instanceEntry[V any] struct {
	in  Instance
	val V
}

// NewInstanceMap returns an empty map with space for n entries.
func NewInstanceMap[V any](n int) *InstanceMap[V] {
	return &InstanceMap[V]{prim: make(map[uint64]instanceEntry[V], n)}
}

// Get returns the value stored for in, if any.
func (m *InstanceMap[V]) Get(in Instance) (V, bool) {
	if e, ok := m.prim[in.Hash()]; ok {
		if e.in.Equal(in) {
			return e.val, true
		}
		for _, e := range m.over[in.Hash()] {
			if e.in.Equal(in) {
				return e.val, true
			}
		}
	}
	var zero V
	return zero, false
}

// Put stores v for in, replacing any existing value, and reports whether
// the entry is new.
func (m *InstanceMap[V]) Put(in Instance, v V) bool {
	h := in.Hash()
	e, ok := m.prim[h]
	if !ok {
		m.prim[h] = instanceEntry[V]{in: in, val: v}
		m.n++
		return true
	}
	if e.in.Equal(in) {
		e.val = v
		m.prim[h] = e
		return false
	}
	bucket := m.over[h]
	for i := range bucket {
		if bucket[i].in.Equal(in) {
			bucket[i].val = v
			return false
		}
	}
	if m.over == nil {
		m.over = make(map[uint64][]instanceEntry[V])
	}
	m.over[h] = append(bucket, instanceEntry[V]{in: in, val: v})
	m.n++
	return true
}

// Len returns the number of entries.
func (m *InstanceMap[V]) Len() int { return m.n }
