package sqldb

import (
	"fmt"
	"sort"
	"strings"
)

// Dump serializes the database — schemas, rows, secondary indexes,
// sequences, and SQL-bodied procedures — as a SQL script that, executed
// against an empty database (DB.ExecScript), reproduces its state.
// Native (Go-registered) procedures cannot be dumped and are emitted as
// comments.
//
// The dump is a committed-only snapshot: it is taken under the
// exclusive engine lock (no statement is mid-flight, no commit is
// mid-stamp) and contains exactly the row versions visible at the
// current commit sequence. Another session's open transaction
// contributes nothing — its pending rows cannot leak into a dump and
// then be rolled back on the primary.
func (db *DB) Dump() string {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.dumpLocked()
}

// BootstrapState is the replica bootstrap point: the committed-only
// dump script, the change-sequence floor it is consistent with, and the
// statements of transactions still open at the floor — every change
// those transactions have already put on the stream (Seq <= floor),
// whose effects the committed-only dump deliberately excludes. All
// three are read under one hold of the exclusive engine lock, and
// change capture advances the sequence only inside statements (which
// hold the shared lock), so no change can slip between them. A new
// replica executes the script, primes the pending statements
// (Applier.Prime), and then applies the live stream from floor+1; the
// open transactions resolve when their COMMIT or ROLLBACK arrives.
func (db *DB) BootstrapState() (script string, floor int64, pending []Change) {
	db.mu.Lock()
	defer db.mu.Unlock()
	script = db.dumpLocked()
	floor = db.changeSeq.Load()
	for _, buf := range db.openTxns {
		pending = append(pending, buf...)
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].Seq < pending[j].Seq })
	return script, floor, pending
}

func (db *DB) dumpLocked() string {
	snap := db.commitSeq.Load()
	var b strings.Builder

	for _, tn := range sortedKeys(db.tables) {
		t := db.tables[tn]
		var cols []string
		for _, c := range t.Columns {
			col := fmt.Sprintf("%s %s", c.Name, c.Type)
			if c.PrimaryKey {
				col += " PRIMARY KEY"
			} else if c.NotNull {
				col += " NOT NULL"
			}
			cols = append(cols, col)
		}
		fmt.Fprintf(&b, "CREATE TABLE %s (%s);\n", t.Name, strings.Join(cols, ", "))
		for _, r := range t.rows {
			if !visibleAt(r, snap, 0) {
				continue // uncommitted, rolled back, or deleted version
			}
			vals := make([]string, len(r.Values))
			for i, v := range r.Values {
				vals[i] = v.SQLLiteral()
			}
			fmt.Fprintf(&b, "INSERT INTO %s VALUES (%s);\n", t.Name, strings.Join(vals, ", "))
		}
		for _, in := range sortedKeys(t.indexes) {
			idx := t.indexes[in]
			if idx == t.pkIndex {
				continue // implied by PRIMARY KEY
			}
			fmt.Fprintf(&b, "CREATE INDEX %s ON %s (%s);\n", idx.Name, t.Name, strings.Join(idx.Columns, ", "))
		}
	}

	for _, sn := range sortedKeys(db.sequences) {
		s := db.sequences[sn]
		next, inc := s.state()
		fmt.Fprintf(&b, "CREATE SEQUENCE %s START WITH %d INCREMENT BY %d;\n",
			s.Name, next, inc)
	}

	for _, pn := range sortedKeys(db.procs) {
		p := db.procs[pn]
		if p.Native != nil {
			fmt.Fprintf(&b, "-- native procedure %s cannot be dumped\n", p.Name)
			continue
		}
		if p.src == "" {
			continue
		}
		fmt.Fprintf(&b, "CREATE PROCEDURE %s () AS '%s';\n", p.Name, strings.ReplaceAll(p.src, "'", "''"))
	}
	return b.String()
}

// sortedKeys lists a catalog map's keys in order: the dump's order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
