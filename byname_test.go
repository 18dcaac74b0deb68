package wfsql

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"wfsql/internal/journal"
	"wfsql/internal/patterns"
	"wfsql/internal/sqldb"
	"wfsql/internal/wsbus"
)

// The by-name oracle of the part vectors. A service call travels as
// vectors laid out by the operation's declared parts, resolved once per
// activity; the oracle is the call by part name, a request map and a
// reply map, as the supplier answered before operations declared their
// parts. Every figure and conformance case runs twice on fresh
// environments: with the supplier's operation, and with mapSupplier
// declared with its request parts in the other order, which names each
// request vector into a map and lays its reply map back out by name. An
// activity that placed a value by position rather than by name sends the
// quantity as the item. Outputs, journal memos and the supplier ledger
// must be identical.

// mapSupplier is the sample supplier as a map service.
type mapSupplier struct {
	mu      sync.Mutex
	ordered map[string]int64
}

// handle is the supplier's operation on a request map.
func (s *mapSupplier) handle(req wsbus.Message) (wsbus.Message, error) {
	item := req["ItemID"]
	if item == "" {
		return nil, fmt.Errorf("OrderFromSupplier: missing ItemID")
	}
	qty, err := strconv.ParseInt(req["Quantity"], 10, 64)
	if err != nil || qty <= 0 {
		return nil, fmt.Errorf("OrderFromSupplier: bad Quantity %q", req["Quantity"])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ordered[item] += qty
	return wsbus.Message{"OrderConfirmation": "CONFIRMED:" + item + ":" + strconv.FormatInt(qty, 10)}, nil
}

// operation declares the supplier's parts in the other order and answers
// each call through handle, by name.
func (s *mapSupplier) operation() wsbus.Operation {
	op := wsbus.Operation{In: []string{"Quantity", "ItemID"}, Out: []string{"OrderConfirmation"}}
	op.Handler = func(in []string) ([]string, error) {
		reply, err := s.handle(wsbus.Named(op.In, in))
		if err != nil {
			return nil, err
		}
		out := make([]string, len(op.Out))
		for i, part := range op.Out {
			out[i] = reply[part]
		}
		return out, nil
	}
	return op
}

// byName installs a map supplier where the environment's stacks reach
// the supplier: over the bus and through the WF runtime.
func byName(bus *wsbus.Bus, rt interface {
	RegisterService(string, wsbus.Operation)
}) *mapSupplier {
	s := &mapSupplier{ordered: map[string]int64{}}
	bus.Register("OrderFromSupplier", s.operation())
	rt.RegisterService("OrderFromSupplier", s.operation())
	return s
}

// ledger returns what the vector supplier ordered per item, for every
// item the Orders table holds an order of.
func ledger(t *testing.T, db *sqldb.DB, s *wsbus.OrderFromSupplierService) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, row := range db.MustExec("SELECT ItemID FROM Orders").Rows {
		if n := s.Ordered(row[0].S); n != 0 {
			out[row[0].S] = n
		}
	}
	return out
}

// TestByNameMatchesVectorsOnFigures runs each stack's figure instance
// with the WAL attached, by vector and by name.
func TestByNameMatchesVectorsOnFigures(t *testing.T) {
	w := Workload{Orders: 60, Items: 6, ApprovalPercent: 80, Seed: 5}
	type outcome struct {
		rows   []string
		memos  []string
		ledger map[string]int64
	}
	run := func(t *testing.T, s Stack, named bool) outcome {
		env := NewEnvironment(w)
		var m *mapSupplier
		if named {
			m = byName(env.Bus, env.Runtime)
		}
		rec := openJournal(t, t.TempDir())
		env.AttachJournal(rec)
		p, err := s.Prepare(env, ResilienceConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		o := outcome{rows: confirmationRows(t, env), ledger: ledger(t, env.DB, env.Supplier)}
		if named {
			o.ledger = maps.Clone(m.ordered)
		}
		raw, err := os.ReadFile(rec.Path())
		if err != nil {
			t.Fatal(err)
		}
		scan, err := journal.Scan(bytes.NewReader(raw))
		if err != nil || scan.Torn {
			t.Fatalf("scan journal: %v torn=%v", err, scan.Torn)
		}
		for _, r := range scan.Records {
			if r.Kind == journal.KindActivityComplete {
				o.memos = append(o.memos, fmt.Sprint(r.Activity, r.Occurrence, r.EffectKind, r.Data))
			}
		}
		return o
	}
	for _, s := range Stacks() {
		t.Run(s.Name, func(t *testing.T) {
			vec, named := run(t, s, false), run(t, s, true)
			if len(vec.ledger) == 0 || len(vec.memos) == 0 {
				t.Fatalf("degenerate run: ledger %v, %d memos", vec.ledger, len(vec.memos))
			}
			if !reflect.DeepEqual(vec, named) {
				t.Errorf("by vector and by name differ:\n vector %+v\n name   %+v", vec, named)
			}
		})
	}
}

// TestByNameMatchesVectorsOnConformance runs every conformance case, and
// every Table I case, by vector and by name and compares the database
// each leaves behind and the supplier ledger.
func TestByNameMatchesVectorsOnConformance(t *testing.T) {
	calls := 0
	check := func(name string, run func(*patterns.Env) error) {
		vec := patterns.NewEnv()
		vecErr := run(vec)
		env := patterns.NewEnv()
		m := byName(env.Bus, env.Runtime)
		err := run(env)
		if fmt.Sprint(vecErr) != fmt.Sprint(err) {
			t.Errorf("%s: error %v by vector, %v by name", name, vecErr, err)
		}
		if got, want := env.DB.Dump(), vec.DB.Dump(); got != want {
			t.Errorf("%s: the database by name differs:\n%s\nby vector:\n%s", name, got, want)
		}
		if got, want := m.ordered, ledger(t, vec.DB, vec.Supplier); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: supplier ledger %v by name, %v by vector", name, got, want)
		}
		calls += len(m.ordered)
	}
	for _, p := range patterns.Products() {
		for _, c := range p.Conformance() {
			check(fmt.Sprintf("%s/%s/%s", p.Info().Vendor, c.Pattern, c.Mechanism), c.Run)
		}
		if ip, ok := p.(patterns.InfoProver); ok {
			for _, c := range ip.InfoCases() {
				check(fmt.Sprintf("%s/%s", p.Info().Vendor, c.Row), c.Run)
			}
		}
	}
	if calls == 0 {
		t.Fatal("no case called the supplier")
	}
}
