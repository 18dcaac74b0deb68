package sqldb

import "sync"

// SessionPool is a checkout pool of sessions on one database, for SQL
// surfaces that are stateless per call (Oracle's XPath extension
// functions, XSQL pages): each in-flight call gets a private session for
// its whole duration, and only sessions proven clean (no open
// transaction) are recycled on release.
type SessionPool struct {
	db *DB

	mu   sync.Mutex
	free []*Session
}

// sessionPoolCap bounds how many idle sessions a pool retains.
const sessionPoolCap = 32

// NewSessionPool builds a pool over db.
func NewSessionPool(db *DB) *SessionPool {
	return &SessionPool{db: db}
}

// Acquire checks out a session. The caller owns it until Release.
func (p *SessionPool) Acquire() *Session {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return s
	}
	p.mu.Unlock()
	return p.db.Session()
}

// Release returns a session to the pool: one still holding an open
// transaction is rolled back and discarded, any other has its execution
// context detached and is recycled.
func (p *SessionPool) Release(s *Session) {
	if s == nil || s.db != p.db {
		return
	}
	if s.InTransaction() {
		s.Rollback()
		return
	}
	s.BindContext(nil)
	p.mu.Lock()
	if len(p.free) < sessionPoolCap {
		p.free = append(p.free, s)
	}
	p.mu.Unlock()
}
