package sqldb

import (
	"fmt"
	"strings"
)

// view is a named stored query re-executed on every reference.
type view struct {
	Name  string
	Query *SelectStmt
	src   string // original definition text for Dump
}

// execCreateView installs a view after checking name collisions and that
// the definition is executable right now (eager validation, like the
// products' database layers do).
func (s *Session) execCreateView(t *CreateViewStmt) (*Result, error) {
	lc := strings.ToLower(t.Name)
	if _, exists := s.db.tables[lc]; exists {
		return nil, fmt.Errorf("sqldb: a table named %s already exists", t.Name)
	}
	if _, exists := s.db.views[lc]; exists {
		return nil, fmt.Errorf("sqldb: view %s already exists", t.Name)
	}
	base := &env{session: s}
	if _, err := s.execSelect(t.Query, base, nil); err != nil {
		return nil, fmt.Errorf("sqldb: view %s definition: %w", t.Name, err)
	}
	s.db.views[lc] = &view{Name: t.Name, Query: t.Query, src: t.Src}
	s.db.footGen.Add(1) // footprints expand view references
	return &Result{}, nil
}

func (s *Session) execDropView(t *DropViewStmt) (*Result, error) {
	lc := strings.ToLower(t.Name)
	if _, ok := s.db.views[lc]; !ok {
		return absent(t.IfExists, "view", t.Name)
	}
	delete(s.db.views, lc)
	s.db.footGen.Add(1)
	return &Result{}, nil
}
