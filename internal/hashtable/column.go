package hashtable

// Column is per-record state a table keeps beside its records, for a field
// only some tables need: its chunks line up with the record chunks and are
// indexed by the record number the table's callbacks are handed (Read,
// Edit, DeleteIf, Range), so a table that makes no Column pays nothing for
// the field. A nil *Column is a column that is off: it loads nothing and
// stores nothing. Load and Store only inside such a callback, under its
// lock; the table zeroes a record's cells when it deletes the record.
type Column[C any] struct {
	chunks []*[recordChunk]C
}

// column is what a table does to its columns: a chunk beside each record
// chunk it makes, a deleted record's cell zeroed, every cell dropped by Clear.
type column interface {
	grow()
	zero(n uint32)
	reset()
}

// NewColumn adds a column of C to t, its cells zero, if on; else it
// returns nil, a column that is off.
func NewColumn[C, V any](t *Table[V], on bool) *Column[C] {
	if !on {
		return nil
	}
	c := &Column[C]{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for range t.recs {
		c.grow()
	}
	t.cols = append(t.cols, c)
	return c
}

// Load copies record n's cell into dst, unless c is off.
func (c *Column[C]) Load(n uint32, dst *C) {
	if c != nil {
		*dst = c.chunks[n/recordChunk][n%recordChunk]
	}
}

// Store copies v into record n's cell, unless c is off.
func (c *Column[C]) Store(n uint32, v C) {
	if c != nil {
		c.chunks[n/recordChunk][n%recordChunk] = v
	}
}

func (c *Column[C]) grow()         { c.chunks = append(c.chunks, new([recordChunk]C)) }
func (c *Column[C]) zero(n uint32) { c.chunks[n/recordChunk][n%recordChunk] = *new(C) }
func (c *Column[C]) reset()        { c.chunks = nil }
