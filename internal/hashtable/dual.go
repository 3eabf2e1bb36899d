package hashtable

// Dual is a Table whose values come in one of two layouts, chosen once when
// it is made: a narrow N, or a wide W that holds what N holds and more. Its
// callers see W either way. A narrow Dual keeps only N in each record and
// converts at its edge with the two functions it was made with, so a store
// whose values never use the wide fields pays no record bytes for them,
// while one that does holds them by value, without a second object.
//
// Dual dispatches on its own fields, never through an interface, so the
// callbacks given to Upsert, DeleteIf and Range do not escape their caller:
// a call allocates no more than the Table call it makes.
type Dual[N, W any] struct {
	narrow *Table[N]
	wide   *Table[W]
	toN    func(W) N
	toW    func(N) W
}

// NewDual creates an empty Dual: a Table of W when wide, else a Table of N
// that stores toN of each value put and hands out toW of each value read.
// toW of the zero N must be the zero W. entrySizeHint is as for New.
func NewDual[N, W any](acct Accountant, entrySizeHint int, wide bool, toN func(W) N, toW func(N) W) *Dual[N, W] {
	d := &Dual[N, W]{toN: toN, toW: toW}
	if wide {
		d.wide = New[W](acct, entrySizeHint)
	} else {
		d.narrow = New[N](acct, entrySizeHint)
	}
	return d
}

// Wide reports whether the records hold the wide layout.
func (d *Dual[N, W]) Wide() bool { return d.wide != nil }

// Len returns the number of stored entries.
func (d *Dual[N, W]) Len() int {
	if d.wide != nil {
		return d.wide.Len()
	}
	return d.narrow.Len()
}

// Get returns a copy of the value for key (see Table.Get).
func (d *Dual[N, W]) Get(key string) (W, bool) {
	if d.wide != nil {
		return d.wide.Get(key)
	}
	v, ok := d.narrow.Get(key)
	return d.toW(v), ok
}

// Key returns the table's own copy of key (see Table.Key).
func (d *Dual[N, W]) Key(key string) (string, bool) {
	if d.wide != nil {
		return d.wide.Key(key)
	}
	return d.narrow.Key(key)
}

// Put inserts or replaces the value for key (see Table.Put).
func (d *Dual[N, W]) Put(key string, val W) bool {
	_, existed := d.Swap(key, val)
	return existed
}

// Swap inserts or replaces the value for key, returning the previous one
// (see Table.Swap).
func (d *Dual[N, W]) Swap(key string, val W) (W, bool) {
	if d.wide != nil {
		return d.wide.Swap(key, val)
	}
	old, ok := d.narrow.Swap(key, d.toN(val))
	return d.toW(old), ok
}

// Upsert inserts or conditionally replaces key's value under one lock hold
// (see Table.Upsert).
func (d *Dual[N, W]) Upsert(key string, fn func(cur W, exists bool) (W, bool)) bool {
	if d.wide != nil {
		return d.wide.Upsert(key, fn)
	}
	return d.narrow.Upsert(key, func(cur N, exists bool) (N, bool) {
		val, store := fn(d.toW(cur), exists)
		return d.toN(val), store
	})
}

// DeleteIf removes key only when cond approves of its current value (see
// Table.DeleteIf).
func (d *Dual[N, W]) DeleteIf(key string, cond func(cur W) bool) bool {
	if d.wide != nil {
		return d.wide.DeleteIf(key, cond)
	}
	return d.narrow.DeleteIf(key, func(cur N) bool { return cond(d.toW(cur)) })
}

// Delete removes key, returning whether it was present.
func (d *Dual[N, W]) Delete(key string) bool {
	if d.wide != nil {
		return d.wide.Delete(key)
	}
	return d.narrow.Delete(key)
}

// Clear removes every entry (see Table.Clear).
func (d *Dual[N, W]) Clear() {
	if d.wide != nil {
		d.wide.Clear()
	} else {
		d.narrow.Clear()
	}
}

// Range calls fn for every entry until fn returns false (see Table.Range).
func (d *Dual[N, W]) Range(fn func(key string, val W) bool) {
	if d.wide != nil {
		d.wide.Range(fn)
		return
	}
	d.narrow.Range(func(key string, val N) bool { return fn(key, d.toW(val)) })
}
