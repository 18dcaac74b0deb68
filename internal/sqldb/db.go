package sqldb

import (
	"container/list"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// DB is an embeddable in-memory relational database. All operations are
// safe for concurrent use. Concurrency control is multi-version with one
// writer lock:
//
//   - SELECT and EXPLAIN read a consistent snapshot taken at statement
//     start and never block on (or are blocked by) writers.
//   - INSERT/UPDATE/DELETE and transaction control hold the writer lock
//     (writeMu) under the shared engine lock, one statement at a time;
//     DDL and CALL take the exclusive engine lock.
//   - Two transactions claiming the same row resolve first-writer-wins:
//     the loser fails with a retryable error wrapping ErrWriteConflict.
//
// The resulting isolation level is snapshot (per statement): a reader
// never observes another transaction's uncommitted or rolled-back
// rows, and a scan never observes a concurrent commit part-way
// through.
//
// Lock order: Session.mu → mu → writeMu. rowsMu (per table), snapMu,
// cacheMu, idleMu and a Sequence's mu are leaves.
type DB struct {
	mu         sync.RWMutex
	name       string
	tables     map[string]*Table
	sequences  map[string]*Sequence
	procs      map[string]*Procedure
	indexOwner map[string]*Table // index name -> owning table

	// writeMu is the writer lock. Every statement that stamps versions,
	// advances commitSeq or changeSeq, delivers to the change sink or
	// touches the openTxns bootstrap buffers holds it or the exclusive
	// engine lock — which is what keeps BootstrapState floors exactly
	// paired with the committed state of a dump. txnIDs mints
	// transaction ids; the snapshot registry (snapMu/snapActive) tracks
	// in-flight statement snapshots so vacuum never removes a version a
	// reader can still see.
	writeMu    sync.Mutex
	commitSeq  atomic.Int64
	txnIDs     atomic.Int64
	snapMu     sync.Mutex
	snapActive map[int64]int
	openTxns   map[int64][]Change // session id -> explicit txn's emitted changes

	// stats counters (observable via Stats) used by benchmarks and the
	// reproduction's data-volume measurements. Atomics: read-only
	// statements increment them while holding only the shared lock.
	stmtCount        atomic.Int64
	rowsRead         atomic.Int64
	rowsWritten      atomic.Int64
	bytesReturned    atomic.Int64
	deadlineRefusals atomic.Int64

	// parsed-statement cache, two levels under one cacheMu:
	//
	//   - stmtCache keys plans by NORMALIZED text (literals extracted
	//     into bind slots, see normalizeStmt), so a per-item INSERT loop
	//     with fresh literals resolves to one cached plan. Statements
	//     the normalizer declines (DDL, scripts) cache under raw text on
	//     the same level. ASTs are immutable after parsing, so a cached
	//     statement may execute concurrently on many sessions. The level
	//     is an LRU: lruList is ordered most- to least-recently used,
	//     and an insert past stmtCacheCap evicts the coldest entry.
	//   - rawCache is a front cache from exact raw text to the plan
	//     entry plus that text's extracted constants, so a literal-
	//     identical repeat skips even the lexer. Raw entries hold no
	//     plan of their own; one whose plan entry was evicted is
	//     dropped lazily on lookup.
	//
	// DDL evicts nothing here: an entry's plan re-checks the catalog each
	// time it is lent (slot.go) and is rebuilt when what it read changed.
	cacheMu        sync.Mutex
	stmtCache      map[string]*list.Element // normalized text -> lruList element
	lruList        *list.List               // of *cacheEntry, front = hottest
	rawCache       map[string]*list.Element // raw text -> rawList element
	rawList        *list.List               // of *rawEntry, front = hottest
	cacheSize      atomic.Int64             // len(stmtCache) mirror for the gauge
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheEvictions atomic.Int64

	// execHook and statsSink are read on every top-level statement and
	// are called without any engine lock held, so the hook can sleep
	// (latency injection) without serializing statement execution.
	execHook  atomic.Pointer[ExecHook]
	statsSink atomic.Pointer[StatsSink]

	// Change-data-capture plumbing (see SetChangeSink): sessionIDs mints
	// the per-session origin ids the stream is keyed by, changeSeq is the
	// global change sequence (advanced under the writer lock or the
	// exclusive engine lock, so it orders exactly like execution), and
	// readOnly puts the database in replica mode (only applier sessions
	// may write).
	changeSink atomic.Pointer[ChangeSink]
	sessionIDs atomic.Int64
	changeSeq  atomic.Int64
	readOnly   atomic.Bool

	// footGen versions slotted plans (slot.go) against procedure changes;
	// a table change shows in the table's schemaVer instead.
	footGen atomic.Int64

	compiles atomic.Int64 // plans built (StmtCacheStats.Compiles)

	// idle holds released clean sessions for Lease, at most idleSessions.
	idleMu sync.Mutex
	idle   []*Session
}

// idleSessions bounds how many released sessions a database keeps.
const idleSessions = 32

// stmtCacheCap bounds the parsed-statement cache. When an insert would
// exceed it the least-recently-used entry is evicted, so hot statements
// survive pressure from workloads that generate unbounded distinct SQL
// text.
const stmtCacheCap = 1024

// rawCacheCap bounds the raw-text front cache. Raw entries are cheap
// (no plan of their own), so the cap is generous; eviction here never
// touches plans.
const rawCacheCap = 4096

// cacheEntry is one plan-cache LRU slot: the normalized SQL text (the
// map key, to unlink on eviction), its parsed statement and that
// statement's slot. dead marks an entry evicted from the plan cache
// while raw front-cache entries may still point at it; those drop
// lazily (all under cacheMu).
type cacheEntry struct {
	sql  string
	st   Stmt
	slot stmtSlot // idle plan, filled by executions
	el   *list.Element
	dead bool
}

// rawEntry is one front-cache slot: the exact raw text, the plan entry
// its normalized form resolves to, and the literal values extracted
// from this particular text (the plan is shared; the constants are
// what distinguish raw texts under it).
type rawEntry struct {
	sql     string
	ce      *cacheEntry
	consts  []Value
	pattern []uint8
}

// parsedStmt is a statement resolved for execution: a cachedParse
// resolution — the statement, its slot, the normalized text it is cached
// under (== the input when the normalizer declined), the constants
// extracted from this exact text with their slot pattern, and the parse
// accounting for StmtStats — or what Prepare, ExecScript and the
// constructors resolved themselves (no cache label, no constants).
type parsedStmt struct {
	st      Stmt
	slot    *stmtSlot
	norm    string
	consts  []Value
	pattern []uint8
	parse   time.Duration
	cache   string // CacheHit, CacheMiss, or "" past the cache
}

// parseRaceHook, when set (tests only), runs after a cache-missed parse
// completes and before the cache is re-locked — the window in which a
// concurrent parser of the same plan can win the insert race.
var parseRaceHook func()

// ExecHook intercepts every top-level statement executed against the
// database, before the engine lock is taken. kind is the statement kind
// (see StmtKind: "SELECT", "INSERT", "COMMIT", ...). A non-nil return
// fails the statement without executing it — the chaos layer uses this to
// model a flaky connection that can fail the Nth statement or commit, and
// to inject latency by sleeping before returning nil. Re-entrant execution
// (statements inside stored procedures) does not pass through the hook.
type ExecHook func(kind string) error

// SetExecHook installs (or, with nil, removes) the statement interceptor.
func (db *DB) SetExecHook(h ExecHook) { db.execHook.Store(&h) }

// installed returns the func a Set* call last stored in p, nil if none.
func installed[F any](p *atomic.Pointer[F]) (f F) {
	if q := p.Load(); q != nil {
		f = *q
	}
	return f
}

// Stats is a snapshot of the engine's activity counters.
type Stats struct {
	Statements    int64
	RowsRead      int64
	RowsWritten   int64
	BytesReturned int64
}

// Open creates a new, empty database with the given name. The name is used
// by data-source references in the workflow layers (e.g. dynamic binding in
// the BIS reproduction).
func Open(name string) *DB {
	return &DB{
		name:       name,
		tables:     map[string]*Table{},
		sequences:  map[string]*Sequence{},
		procs:      map[string]*Procedure{},
		indexOwner: map[string]*Table{},
		stmtCache:  map[string]*list.Element{},
		lruList:    list.New(),
		rawCache:   map[string]*list.Element{},
		rawList:    list.New(),
	}
}

// DeadlineRefusals returns how many statements were refused at the
// session boundary because the session's bound context had expired.
func (db *DB) DeadlineRefusals() int64 { return db.deadlineRefusals.Load() }

// Name returns the database name given to Open.
func (db *DB) Name() string { return db.name }

// Stats returns a snapshot of the engine's activity counters.
func (db *DB) Stats() Stats {
	return Stats{
		Statements:    db.stmtCount.Load(),
		RowsRead:      db.rowsRead.Load(),
		RowsWritten:   db.rowsWritten.Load(),
		BytesReturned: db.bytesReturned.Load(),
	}
}

// ResetStats zeroes the activity counters.
func (db *DB) ResetStats() {
	db.stmtCount.Store(0)
	db.rowsRead.Store(0)
	db.rowsWritten.Store(0)
	db.bytesReturned.Store(0)
}

// StmtCacheStats is a snapshot of the parsed-statement cache counters.
type StmtCacheStats struct {
	Size      int   // statements currently cached
	Hits      int64 // Exec calls served from the cache
	Misses    int64 // calls that had to parse
	Evictions int64 // single LRU evictions (capacity pressure)
	Compiles  int64 // plans built: SELECTs and UPDATE/DELETE row filters, slotted or not
}

// StmtCacheStats returns a snapshot of the parsed-statement cache.
func (db *DB) StmtCacheStats() StmtCacheStats {
	db.cacheMu.Lock()
	size := len(db.stmtCache)
	db.cacheMu.Unlock()
	return StmtCacheStats{
		Size:      size,
		Hits:      db.cacheHits.Load(),
		Misses:    db.cacheMisses.Load(),
		Evictions: db.cacheEvictions.Load(),
		Compiles:  db.compiles.Load(),
	}
}

// cachedParse resolves SQL text to a parsed statement through the
// two-level per-DB statement cache. A literal-identical repeat is
// served by the raw front cache without lexing; otherwise the text is
// normalized (literals extracted into bind slots) and the plan is
// looked up — or parsed and inserted — under the normalized text.
// Statements the normalizer declines parse and cache under raw text.
// Statements that fail to parse are not cached. A hit moves the plan
// entry to the front of the LRU order; an insert past capacity evicts
// the coldest entry.
//
// A parser that loses the insert race to a concurrent parser of the
// same plan adopts the winner's entry and reports a HIT with zero
// parse time: the cached plan is what executes, so charging the loser's
// discarded parse (and a miss) to its caller's StmtStats would be a
// lie about the statement that actually ran.
func (db *DB) cachedParse(sql string) (parsedStmt, error) {
	db.cacheMu.Lock()
	if el, ok := db.rawCache[sql]; ok {
		re := el.Value.(*rawEntry)
		if !re.ce.dead {
			db.rawList.MoveToFront(el)
			db.lruList.MoveToFront(re.ce.el)
			// Read the entry under the lock: insertRawLocked refreshes
			// these fields in place for a concurrent parser of this text.
			ps := parsedStmt{st: re.ce.st, slot: &re.ce.slot, norm: re.ce.sql, consts: re.consts, pattern: re.pattern, cache: CacheHit}
			db.cacheMu.Unlock()
			db.cacheHits.Add(1)
			return ps, nil
		}
		db.rawList.Remove(el)
		delete(db.rawCache, sql)
	}
	db.cacheMu.Unlock()

	start := time.Now()
	n, normalized := normalizeStmt(sql)
	key := sql
	if normalized {
		key = n.text
	}
	db.cacheMu.Lock()
	if el, ok := db.stmtCache[key]; ok {
		db.lruList.MoveToFront(el)
		ce := el.Value.(*cacheEntry)
		db.insertRawLocked(sql, ce, n.consts, n.pattern)
		db.cacheMu.Unlock()
		db.cacheHits.Add(1)
		return parsedStmt{st: ce.st, slot: &ce.slot, norm: key, consts: n.consts, pattern: n.pattern, cache: CacheHit}, nil
	}
	db.cacheMu.Unlock()

	var st Stmt
	var err error
	if normalized {
		st, err = parseTokens(sql, n.toks)
	} else {
		st, err = Parse(sql)
	}
	parse := time.Since(start)
	if err != nil {
		return parsedStmt{}, err
	}
	if parseRaceHook != nil {
		parseRaceHook()
	}
	db.cacheMu.Lock()
	var ce *cacheEntry
	cache := CacheMiss
	if el, ok := db.stmtCache[key]; ok {
		// Lost the race to another parser of the same plan: adopt the
		// winner's entry, report a hit, charge no parse time.
		db.lruList.MoveToFront(el)
		ce = el.Value.(*cacheEntry)
		cache, parse = CacheHit, 0
	} else {
		for len(db.stmtCache) >= stmtCacheCap {
			coldest := db.lruList.Back()
			if coldest == nil {
				break
			}
			db.lruList.Remove(coldest)
			dead := coldest.Value.(*cacheEntry)
			dead.dead = true
			delete(db.stmtCache, dead.sql)
			db.cacheEvictions.Add(1)
		}
		ce = &cacheEntry{sql: key, st: st}
		ce.el = db.lruList.PushFront(ce)
		db.stmtCache[key] = ce.el
		db.cacheSize.Store(int64(len(db.stmtCache)))
	}
	db.insertRawLocked(sql, ce, n.consts, n.pattern)
	db.cacheMu.Unlock()
	if cache == CacheHit {
		db.cacheHits.Add(1)
	} else {
		db.cacheMisses.Add(1)
	}
	return parsedStmt{st: ce.st, slot: &ce.slot, norm: key, consts: n.consts, pattern: n.pattern, parse: parse, cache: cache}, nil
}

// insertRawLocked records (or refreshes) the raw-text front-cache entry
// mapping this exact text to its plan entry. Caller holds cacheMu.
// Front-cache eviction is not counted in Evictions — no plan is lost.
func (db *DB) insertRawLocked(sql string, ce *cacheEntry, consts []Value, pattern []uint8) {
	if el, ok := db.rawCache[sql]; ok {
		re := el.Value.(*rawEntry)
		re.ce, re.consts, re.pattern = ce, consts, pattern
		db.rawList.MoveToFront(el)
		return
	}
	for len(db.rawCache) >= rawCacheCap {
		coldest := db.rawList.Back()
		if coldest == nil {
			break
		}
		db.rawList.Remove(coldest)
		delete(db.rawCache, coldest.Value.(*rawEntry).sql)
	}
	db.rawCache[sql] = db.rawList.PushFront(&rawEntry{sql: sql, ce: ce, consts: consts, pattern: pattern})
}

// TableNames returns the names of all tables, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// HasTable reports whether the named table exists.
func (db *DB) HasTable(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.tables[strings.ToLower(name)]
	return ok
}

// Schema returns the column definitions of the named table.
func (db *DB) Schema(table string) ([]Column, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return nil, fmt.Errorf("sqldb: no such table %s", table)
	}
	cols := make([]Column, len(t.Columns))
	copy(cols, t.Columns)
	return cols, nil
}

func (db *DB) table(name string) (*Table, error) {
	t, ok := LookupFold(db.tables, name)
	if !ok {
		return nil, fmt.Errorf("sqldb: no such table %s", name)
	}
	return t, nil
}

// LookupFold indexes a map keyed by lowercased names with a name in any
// letter case. An ASCII name of up to 64 bytes is lowercased into a stack
// buffer, and indexing with string(buf) does not allocate; other names
// go through strings.ToLower.
func LookupFold[V any](m map[string]V, name string) (V, bool) {
	var buf [64]byte
	if len(name) <= len(buf) {
		ascii := true
		for i := 0; i < len(name) && ascii; i++ {
			c := name[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf[i], ascii = c, c < utf8.RuneSelf
		}
		if ascii {
			v, ok := m[string(buf[:len(name)])]
			return v, ok
		}
	}
	v, ok := m[strings.ToLower(name)]
	return v, ok
}

// RegisterProcedure installs a native (Go-implemented) stored procedure.
// Native procedures model vendor-supplied database logic; SQL-bodied
// procedures are created with CREATE PROCEDURE.
func (db *DB) RegisterProcedure(name string, fn NativeProc) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.procs[strings.ToLower(name)] = &Procedure{Name: name, Native: fn}
	db.footGen.Add(1)
}

// Session opens a new session on the database. Sessions are cheap; each
// workflow instance (or activity execution) typically uses its own.
func (db *DB) Session() *Session {
	return &Session{db: db, id: db.sessionIDs.Add(1)}
}

// Lease hands out a session released earlier, else a new one: the session
// a workflow instance holds for its run, returned by Release. A leased
// session keeps its reusable buffers, so a run pays no session of its own.
func (db *DB) Lease() *Session {
	db.idleMu.Lock()
	defer db.idleMu.Unlock()
	n := len(db.idle)
	if n == 0 {
		return db.Session()
	}
	s := db.idle[n-1]
	db.idle[n-1] = nil
	db.idle = db.idle[:n-1]
	return s
}

// Release ends a lease. A session still in an explicit transaction is
// rolled back and dropped; any other has its budget unbound and its span
// parent cleared, and is kept for the next Lease (up to idleSessions per
// database).
func (s *Session) Release() {
	if s.InTransaction() {
		s.Rollback()
		return
	}
	s.BindContext(nil)
	s.spanParent = 0
	db := s.db
	db.idleMu.Lock()
	if len(db.idle) < idleSessions {
		db.idle = append(db.idle, s)
	}
	db.idleMu.Unlock()
}

// Change is one entry of the database's change stream: a successfully
// executed top-level mutating statement (IUD, DDL, CALL, and the
// transaction boundaries BEGIN/COMMIT/ROLLBACK), in engine execution
// order. Replaying the stream against a database bootstrapped from the
// same starting state reproduces the primary — the statement-based
// replication an Applier performs.
type Change struct {
	// Seq is the global change sequence number, dense and strictly
	// increasing in execution order. A replica bootstrapped from a dump
	// taken at sequence S applies only changes with Seq > S.
	Seq int64
	// Session is the origin session id (Session.ID). Interleaved
	// transactions from concurrent sessions replay correctly only when
	// each origin session's statements run on a dedicated replica
	// session — the Applier keeps that map.
	Session int64
	// Kind is the statement kind label (StmtKind).
	Kind string
	// SQL is the statement text; Params is its parameter vector, named
	// placeholders' values included (they are slots like any other).
	SQL    string
	Params []Value
}

// ChangeSink receives every change in execution order. It is called
// while the emitting statement holds the writer lock or the exclusive
// engine lock — that is what makes the order authoritative — so
// implementations must be fast and must not call back into the database.
type ChangeSink func(Change)

// SetChangeSink installs (or with nil removes) the change-stream
// capture hook. Every entry point — Exec, prepared statements,
// ExecScript and Session.Rollback — executes with its statement text
// attached, so every mutating top-level statement is captured.
func (db *DB) SetChangeSink(fn ChangeSink) { db.changeSink.Store(&fn) }

// SetReadOnly switches the database in or out of replica mode: when
// read-only, every mutating statement from a normal session is refused
// at the session boundary with an error wrapping ErrReadOnly, while
// applier sessions (NewApplier) still write. SELECT and EXPLAIN are
// unaffected — serving those is the point of a read replica.
func (db *DB) SetReadOnly(on bool) { db.readOnly.Store(on) }

// Exec is a convenience that runs a statement on a throwaway session.
func (db *DB) Exec(sql string, params ...Value) (*Result, error) {
	return db.Session().Exec(sql, params...)
}

// MustExec runs a statement and panics on error; intended for tests and
// example setup code.
func (db *DB) MustExec(sql string, params ...Value) *Result {
	r, err := db.Exec(sql, params...)
	if err != nil {
		panic(err)
	}
	return r
}

// ExecScript executes a semicolon-separated script atomically with respect
// to each statement (no surrounding transaction). It returns the result of
// the last statement. Each statement executes with its own source text
// attached (so a change sink captures it) and, like a prepared
// statement, without touching the plan cache — loading a dump cannot
// evict hot entries.
func (db *DB) ExecScript(script string) (*Result, error) {
	stmts, _, err := parseScript(script)
	if err != nil {
		return nil, err
	}
	s := db.Session()
	var last *Result
	for _, st := range stmts {
		last, err = s.execStmt(&parsedStmt{st: st.st, norm: st.text}, nil, nil)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}
