package lockorder

import "sync"

type item struct {
	mu sync.RWMutex
}

type store struct {
	mu    sync.RWMutex
	items []item
}

// good pairs each lock with an unlock.
func (st *store) good() {
	st.mu.Lock()
	st.items[0].mu.Lock()
	st.items[0].mu.Unlock()
	st.mu.Unlock()
}

// deferGood pairs via defer.
func (st *store) deferGood() {
	st.mu.Lock()
	defer st.mu.Unlock()
}

// readGood pairs a read lock with its read unlock.
func (st *store) readGood() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.items)
}

// aliasGood locks through the slice and unlocks through a pointer alias;
// pairing is keyed by (type, field), not by spelling.
func (st *store) aliasGood() {
	for i := range st.items {
		st.items[i].mu.Lock()
	}
	for i := range st.items {
		it := &st.items[i]
		it.mu.Unlock()
	}
}

// closureGood unlocks inside the closure it returns.
func (st *store) closureGood() func() {
	st.mu.Lock()
	return func() { st.mu.Unlock() }
}

// errorPathGood unlocks on every path, by hand.
func (st *store) errorPathGood(fail bool) bool {
	st.mu.Lock()
	if fail {
		st.mu.Unlock()
		return false
	}
	st.mu.Unlock()
	return true
}

// unlockOnlyGood releases a lock its caller took; an unlock without a
// lock is not a finding.
func (st *store) unlockOnlyGood() {
	st.mu.RUnlock()
}

// tryGood ignores TryLock: a failed TryLock has no unlock.
func (st *store) tryGood() {
	if st.mu.TryLock() {
		st.mu.Unlock()
	}
}

// localGood pairs a local mutex.
func localGood() {
	var mu sync.Mutex
	mu.Lock()
	mu.Unlock()
}

func (st *store) badPairing() {
	st.mu.Lock() // want "no matching Unlock"
}

func (st *store) badKind() {
	st.mu.RLock() // want "no matching RUnlock"
	st.mu.Unlock()
}

func (it *item) badReadPairing() {
	it.mu.RLock() // want "no matching RUnlock"
}

func localBad() {
	var mu sync.Mutex
	mu.Lock() // want "no matching Unlock"
}
