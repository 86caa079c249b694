package crossspace

import "pipeline"

// Store owns per-space indexes, like the provenance store.
type Store struct {
	space *pipeline.Space
	n     int
}

// Good guards before indexing.
func (st *Store) Good(ref pipeline.Instance) int {
	if ref.Space() != st.space {
		return 0
	}
	return st.n
}

// GoodEq may phrase the guard with ==.
func (st *Store) GoodEq(ref pipeline.Instance) int {
	if ref.Space() == st.space {
		return st.n
	}
	return 0
}

func (st *Store) Bad(ref pipeline.Instance) int { // want "never compares ref.Space"
	return st.n
}

// quiet is unexported and out of scope.
func (st *Store) quiet(ref pipeline.Instance) int {
	_ = ref
	return st.n
}

// View reaches the space through its Store field, one hop away.
type View struct {
	st *Store
}

// GoodIndirect guards through the inner field.
func (e *View) GoodIndirect(ref pipeline.Instance) int {
	if ref.Space() != e.st.space {
		return 0
	}
	return e.st.n
}

func (e *View) BadIndirect(ref pipeline.Instance) int { // want "never compares ref.Space"
	return e.st.n
}

// Consumer holds no space field; its methods are out of scope even with
// Instance parameters.
type Consumer struct {
	last int
}

// Use records an instance hash without touching any index.
func (c *Consumer) Use(ref pipeline.Instance) {
	c.last = int(ref.Hash())
}
