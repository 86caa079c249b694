package provenance

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/pipeline"
)

// The CSV layout is one header row naming the parameters plus a trailing
// "outcome" column, then one row per record. Ordinal values serialize as
// bare numbers, categorical values as the raw label; the parameter kinds of
// the target space disambiguate on load.

// WriteCSV writes the store's records in execution order.
func (st *Store) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append(st.space.Names(), "outcome")
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("provenance: write header: %w", err)
	}
	for _, r := range st.Snapshot().Records() {
		row := make([]string, 0, st.space.Len()+1)
		for i := 0; i < st.space.Len(); i++ {
			row = append(row, encodeValue(r.Instance.Value(i)))
		}
		row = append(row, r.Outcome.String())
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("provenance: write row %d: %w", r.Seq, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV loads records into a fresh store over space s. The header must
// list exactly the space's parameters (any order) plus "outcome". Values
// must parse according to each parameter's kind; values outside the
// declared domains are added to the universe (Definition 1 allows
// expansion), except NaN, which joins no domain (see
// pipeline.Space.AddToDomain): a record holding NaN loads with that value
// outside the universe.
func ReadCSV(s *pipeline.Space, r io.Reader, source string) (*Store, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("provenance: read header: %w", err)
	}
	cols := make([]int, 0, len(header)) // CSV column -> parameter index; -1 for outcome
	outcomeCol := -1
	seen := make(map[string]bool)
	for ci, name := range header {
		if name == "outcome" {
			outcomeCol = ci
			cols = append(cols, -1)
			continue
		}
		pi, ok := s.Index(name)
		if !ok {
			return nil, fmt.Errorf("provenance: header column %q is not a parameter", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("provenance: duplicate column %q", name)
		}
		seen[name] = true
		cols = append(cols, pi)
	}
	if outcomeCol < 0 {
		return nil, fmt.Errorf("provenance: missing outcome column")
	}
	if len(seen) != s.Len() {
		return nil, fmt.Errorf("provenance: header covers %d of %d parameters", len(seen), s.Len())
	}
	st := NewStore(s)
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return st, nil
		}
		if err != nil {
			return nil, fmt.Errorf("provenance: line %d: %w", line, err)
		}
		vals := make([]pipeline.Value, s.Len())
		var out pipeline.Outcome
		for ci, cell := range row {
			pi := cols[ci]
			if pi < 0 {
				out, err = pipeline.ParseOutcome(cell)
				if err != nil {
					return nil, fmt.Errorf("provenance: line %d: %w", line, err)
				}
				continue
			}
			v, err := decodeValue(s.At(pi).Kind, cell)
			if err != nil {
				return nil, fmt.Errorf("provenance: line %d, column %q: %w", line, header[ci], err)
			}
			vals[pi] = v
		}
		in, err := pipeline.NewInstance(s, vals)
		if err != nil {
			return nil, fmt.Errorf("provenance: line %d: %w", line, err)
		}
		for i := 0; i < s.Len(); i++ {
			if v := in.Value(i); s.DomainIndex(i, v) < 0 && !(v.Kind() == pipeline.Ordinal && math.IsNaN(v.Num())) {
				if err := s.AddToDomain(s.At(i).Name, v); err != nil {
					return nil, fmt.Errorf("provenance: line %d: %w", line, err)
				}
			}
		}
		if err := st.Add(in, out, source); err != nil {
			return nil, fmt.Errorf("provenance: line %d: %w", line, err)
		}
	}
}

func encodeValue(v pipeline.Value) string {
	if v.Kind() == pipeline.Ordinal {
		return strconv.FormatFloat(v.Num(), 'g', -1, 64)
	}
	return v.Str()
}

func decodeValue(k pipeline.Kind, cell string) (pipeline.Value, error) {
	if k == pipeline.Categorical {
		return pipeline.Cat(cell), nil
	}
	x, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return pipeline.Value{}, fmt.Errorf("ordinal value %q: %w", cell, err)
	}
	return pipeline.Ord(x), nil
}
