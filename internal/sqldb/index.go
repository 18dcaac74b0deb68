package sqldb

import (
	"fmt"
	"slices"
	"strconv"
)

// Index is a hash index over one or more columns. A primary key's index
// is unique: it enforces key uniqueness over columns that are NOT NULL;
// CREATE INDEX makes one that is not. A bucket
// holds, in heap order, every version of its key still in the heap —
// visibility filtering happens at scan time — so the structure needs no
// maintenance on commit or rollback, only on vacuum, which takes the
// versions it drops from the heap out of their buckets (remove). No
// bucket is left empty. Keys are encoded into a stack buffer and the
// map is probed with string(buf), which does not allocate: only insert
// pays for a key.
//
// Structural access is guarded by the owning table's rowsMu: insert,
// checkInsert and remove run under the write half (inside
// insertVersion/maybeVacuum), appendLookup copies its bucket under the
// read half so snapshot readers never alias a bucket being filtered.
type Index struct {
	Name    string
	Table   *Table
	Columns []string
	colIdx  []int
	Unique  bool
	buckets map[string][]*Row
}

func newIndex(name string, t *Table, cols []string, unique bool) (*Index, error) {
	idx := &Index{Name: name, Table: t, Columns: cols, Unique: unique, buckets: map[string][]*Row{}}
	for _, c := range cols {
		ci := t.ColumnIndex(c)
		if ci < 0 {
			return nil, fmt.Errorf("sqldb: index %s: unknown column %s on table %s", name, c, t.Name)
		}
		idx.colIdx = append(idx.colIdx, ci)
	}
	// Build over existing versions (a unique index is built with its
	// table, over none). CREATE INDEX runs under the exclusive engine
	// lock, but other sessions' open transactions may have pending
	// versions in the heap: every version not aborted goes in.
	for _, r := range t.rows {
		if r.xmin.Load() != abortedStamp {
			idx.insert(r)
		}
	}
	return idx, nil
}

// keyBuf is the stack buffer keys are encoded into (longer ones spill).
type keyBuf [64]byte

// appendKey appends the key encoding of one column value: a kind byte,
// then digits closed by NUL or a length-prefixed string. Each is
// self-delimiting, so a composite key is injective. Integral floats
// encode as integers so 1 and 1.0 collide, matching compareValues.
func appendKey(b []byte, v Value) []byte {
	if f := v.F(); v.K == KindFloat && f == float64(int64(f)) {
		v = Int(int64(f))
	}
	switch v.K {
	case KindInt:
		return append(strconv.AppendInt(append(b, 'i'), v.I, 10), 0)
	case KindFloat:
		return append(strconv.AppendFloat(append(b, 'f'), v.F(), 'g', -1, 64), 0)
	case KindString:
		b = append(strconv.AppendInt(append(b, 's'), int64(len(v.S)), 10), ':')
		return append(b, v.S...)
	case KindBool:
		if v.B() {
			return append(b, 'T')
		}
		return append(b, 'F')
	}
	return append(b, 'n')
}

// rowKey encodes the indexed column values of a row into b.
func (idx *Index) rowKey(b []byte, vals []Value) []byte {
	for _, ci := range idx.colIdx {
		b = appendKey(b, vals[ci])
	}
	return b
}

// checkInsert decides whether txnID may add a version with r's key.
// Dead and dying versions don't block the key: aborted and
// committed-deleted versions are skipped, as are versions this same
// transaction has claimed (an UPDATE replacing the row). A version
// another open transaction is still deciding about — its pending insert
// or its claim — makes the outcome unknowable, which is a retryable
// write conflict; a committed live version or this transaction's own
// pending insert is a hard unique violation.
func (idx *Index) checkInsert(r *Row, txnID int64) error {
	if !idx.Unique {
		return nil
	}
	var buf keyBuf
	k := idx.rowKey(buf[:0], r.Values)
	for _, o := range idx.buckets[string(k)] {
		if o == r {
			continue
		}
		oxmin := o.xmin.Load()
		if oxmin == abortedStamp {
			continue
		}
		switch ox := o.xmax.Load(); {
		case ox > 0:
			continue // committed delete: the key is free
		case ox < 0:
			if -ox == txnID {
				continue // our own claim: we are replacing this version
			}
			return &writeConflictError{table: idx.Table.Name}
		}
		if oxmin < 0 && -oxmin != txnID {
			return &writeConflictError{table: idx.Table.Name}
		}
		return fmt.Errorf("sqldb: unique constraint violation on index %s", idx.Name)
	}
	return nil
}

func (idx *Index) insert(r *Row) {
	var buf keyBuf
	k := idx.rowKey(buf[:0], r.Values)
	idx.buckets[string(k)] = append(idx.buckets[string(k)], r)
}

// remove takes the reclaimed versions — every version of the heap that
// gone reports — out of their buckets. A bucket is filtered whole on the
// first of its versions met, so one that gave up several is remembered
// by its first survivor and not walked again: the cost is linear in the
// buckets touched however many versions share a key. A version the
// index never held (aborted before CREATE INDEX) takes nothing out. The
// caller holds the table's rowsMu write lock.
func (idx *Index) remove(reclaimed []*Row, gone func(*Row) bool) {
	var swept map[*Row]bool
	var buf keyBuf
	for _, r := range reclaimed {
		k := idx.rowKey(buf[:0], r.Values)
		b := idx.buckets[string(k)]
		if len(b) == 0 || swept[b[0]] {
			continue
		}
		kept := slices.DeleteFunc(b, gone)
		if len(kept) == 0 {
			delete(idx.buckets, string(k))
			continue
		}
		idx.buckets[string(k)] = kept
		if len(b)-len(kept) > 1 { // more of this key are coming
			if swept == nil {
				swept = map[*Row]bool{}
			}
			swept[kept[0]] = true
		}
	}
}

// appendLookup appends to dst the versions whose indexed columns equal
// vals, one per index column in order: a copy, safe to filter and iterate
// after the structural lock is released. Callers apply visibility.
func (idx *Index) appendLookup(dst []*Row, vals []Value) []*Row {
	idx.bucket(vals, func(b []*Row) { dst = append(dst, b...) })
	return dst
}

// count is the number of versions appendLookup would copy.
func (idx *Index) count(vals []Value) (n int) {
	idx.bucket(vals, func(b []*Row) { n = len(b) })
	return n
}

// bucket hands vals' bucket to use under the structural read lock; a
// NULL in vals finds nothing (NULL never equals anything).
func (idx *Index) bucket(vals []Value, use func([]*Row)) {
	var buf keyBuf
	k := buf[:0]
	for _, v := range vals {
		if v.IsNull() {
			return
		}
		k = appendKey(k, v)
	}
	idx.Table.rowsMu.RLock()
	use(idx.buckets[string(k)])
	idx.Table.rowsMu.RUnlock()
}
