package sqldb

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"wfsql/internal/obsv"
)

// StmtStats describes one top-level statement execution: what ran, which
// access path the executor actually took (EXPLAIN-aligned label), and how
// much work it did. Emitted to the session's (or database's) StatsSink
// after the engine lock is released.
type StmtStats struct {
	Start        time.Time     // when execution (not parsing) began
	Kind         string        // SELECT / INSERT / UPDATE / ... (StmtKind)
	Table        string        // primary access-path table, if any
	Index        string        // index the executor probed ("" = scan)
	Plan         string        // EXPLAIN-aligned access-path label
	Parse        time.Duration // time spent in Parse (0 for cache hits and re-used prepared statements)
	Exec         time.Duration // time spent executing
	LockWait     time.Duration // engine lock + table latches + conflict backoff
	Cache        string        // statement-cache outcome: CacheHit, CacheMiss, or "" (pre-parsed)
	RowsScanned  int64         // candidate rows read by this statement
	RowsReturned int64         // result-set rows
	RowsAffected int           // DML rows affected
	Err          string        // non-empty if the statement failed

	// LockWaitByTable attributes the latch-wait portion of LockWait to
	// the tables whose latches the statement contended on (plus
	// write-conflict backoff charged to the conflicted table). Nil when
	// the statement waited on no table latch.
	LockWaitByTable map[string]time.Duration
}

// Statement-cache outcomes recorded in StmtStats.Cache.
const (
	CacheHit  = "hit"
	CacheMiss = "miss"
)

// StatsSink receives per-statement stats. It is invoked after the engine
// lock is released, so a sink may safely read DB state — but it runs on
// the statement's goroutine, so it should be fast.
type StatsSink func(StmtStats)

// SetStatsSink installs a per-session stats sink, overriding the
// database-level sink for statements on this session. Nil reverts to the
// database-level sink.
func (s *Session) SetStatsSink(sink StatsSink) { s.sink = sink }

// SetStatsSink installs a database-level default sink inherited by every
// session without its own. Nil removes it.
func (db *DB) SetStatsSink(sink StatsSink) { db.statsSink.Store(&sink) }

// planLabel is the single source of truth for access-path labels: both
// EXPLAIN output and executor-side StmtStats.Plan render through it, so
// the plan a query *reports* is definitionally the plan the executor
// *takes* (they also share the chooseIndex planner entry point).
func planLabel(tbl *Table, idx *Index) string {
	if idx != nil {
		return fmt.Sprintf("INDEX PROBE %s USING %s (%s)", tbl.Name, idx.Name, strings.Join(idx.Columns, ", "))
	}
	return fmt.Sprintf("SCAN %s (%d rows)", tbl.Name, tbl.RowCount())
}

// notePlan records the primary access path chosen while executing the
// current statement. First write wins: subqueries must not overwrite the
// outer statement's access path.
func (s *Session) notePlan(tbl *Table, idx *Index) {
	if s.planTable != "" {
		return
	}
	s.planTable = tbl.Name
	if idx != nil {
		s.planIndex = idx.Name
	}
}

// SetObservability wires the database into a tracing/metrics bundle:
// every top-level statement emits a KindSQL span (parented at the
// tracer's ambient span, i.e. the activity currently executing) and
// feeds the sqldb.* counters and latency histograms. Nil detaches.
func (db *DB) SetObservability(o *obsv.Observability) {
	if o == nil {
		db.SetStatsSink(nil)
		return
	}
	name := db.name
	// Per-kind metric names are precomputed for the closed StmtKind set so
	// the hot path does not concatenate strings per statement. The map is
	// read-only after construction, so sharing it across sessions is safe.
	kindNames := make(map[string][2]string, len(stmtKinds))
	for _, k := range stmtKinds {
		kindNames[k] = [2]string{"sqldb.stmt." + k, "sqldb.exec_ms." + k}
	}
	db.SetStatsSink(func(st StmtStats) {
		kn, ok := kindNames[st.Kind]
		if !ok {
			kn = [2]string{"sqldb.stmt." + st.Kind, "sqldb.exec_ms." + st.Kind}
		}
		m := o.M()
		m.Counter("sqldb.stmt").Inc()
		m.Counter(kn[0]).Inc()
		m.Histogram("sqldb.parse_ms").ObserveDuration(st.Parse)
		m.Histogram("sqldb.exec_ms").ObserveDuration(st.Exec)
		m.Histogram(kn[1]).ObserveDuration(st.Exec)
		m.Histogram("sqldb.lock_wait_ms").ObserveDuration(st.LockWait)
		for tbl, d := range st.LockWaitByTable {
			m.Histogram("sqldb.lock_wait_ms." + tbl).ObserveDuration(d)
		}
		m.Counter("sqldb.rows_scanned").Add(st.RowsScanned)
		m.Counter("sqldb.rows_returned").Add(st.RowsReturned)
		switch st.Cache {
		case CacheHit:
			m.Counter("sqldb.stmtcache.hits").Inc()
		case CacheMiss:
			m.Counter("sqldb.stmtcache.misses").Inc()
		}
		// Plan-cache occupancy, mirrored through an atomic so the sink
		// never takes cacheMu on the statement path.
		m.Gauge("sqldb.stmtcache.size").SetInt(db.cacheSize.Load())
		if st.Table != "" {
			if st.Index != "" {
				m.Counter("sqldb.index_hits").Inc()
			} else {
				m.Counter("sqldb.index_misses").Inc()
			}
		}
		if st.Err != "" {
			m.Counter("sqldb.errors").Inc()
		}

		tr := o.T()
		sp := tr.StartAt(tr.Ambient(), obsv.KindSQL, st.Kind, st.Start)
		if sp == nil {
			return
		}
		sp.Set("db", name)
		if st.Table != "" {
			sp.Set("table", st.Table)
		}
		if st.Plan != "" {
			sp.Set("plan", st.Plan)
		}
		if st.Index != "" {
			sp.Set("index", st.Index)
		}
		sp.Set("rows_scanned", strconv.FormatInt(st.RowsScanned, 10))
		sp.Set("rows_returned", strconv.FormatInt(st.RowsReturned, 10))
		sp.Set("exec_ms", strconv.FormatFloat(float64(st.Exec)/float64(time.Millisecond), 'f', 3, 64))
		if st.Err != "" {
			sp.Set("error", st.Err)
			sp.End(obsv.OutcomeFault)
			return
		}
		sp.End(obsv.OutcomeOK)
	})
}
