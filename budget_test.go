package wfsql

import (
	"context"
	"os"
	"reflect"
	"testing"

	"wfsql/internal/journal"
	"wfsql/internal/obsv"
)

// TestCountBudget is the machine-independent half of the benchmark's
// budget: what one instance of each stack writes to the journal, sends to
// the database and emits as spans at the benchmark's figure workload (120
// orders, 8 item types, 80 % approved) is a count, not a time, so it is
// asserted exactly and on every test run. A change that adds a journal
// append, a statement or a span per instance fails here and must move the
// number on purpose.
func TestCountBudget(t *testing.T) {
	w := Workload{Orders: 120, Items: 8, ApprovalPercent: 80, Seed: 1}
	for _, tc := range []struct {
		stack      Stack
		records    map[journal.Kind]int // the whole WAL: deployment + one instance
		statements int64                // DB.Stats().Statements for the instance
		spans      map[obsv.SpanKind]int
	}{
		{StackBIS,
			map[journal.Kind]int{journal.KindDeploy: 1, journal.KindInstanceCreated: 1, journal.KindActivityComplete: 17, journal.KindInstanceComplete: 1},
			12, map[obsv.SpanKind]int{obsv.KindInstance: 1, obsv.KindActivity: 62, obsv.KindSQL: 12, obsv.KindBus: 8}},
		{StackWF,
			map[journal.Kind]int{journal.KindInstanceCreated: 1, journal.KindActivityComplete: 17, journal.KindInstanceComplete: 1},
			9, map[obsv.SpanKind]int{obsv.KindInstance: 1, obsv.KindActivity: 35, obsv.KindSQL: 9}},
		{StackOracle,
			map[journal.Kind]int{journal.KindDeploy: 1, journal.KindInstanceCreated: 1, journal.KindActivityComplete: 17, journal.KindInstanceComplete: 1},
			9, map[obsv.SpanKind]int{obsv.KindInstance: 1, obsv.KindActivity: 61, obsv.KindSQL: 9, obsv.KindBus: 8}},
	} {
		t.Run(tc.stack.Name, func(t *testing.T) {
			env := NewEnvironment(w)
			rec := openJournal(t, t.TempDir())
			env.AttachJournal(rec)
			col := obsv.NewCollector()
			o := obsv.New()
			o.Tracer.AddSink(col)
			env.EnableObservability(o)

			p, err := tc.stack.Prepare(env, ResilienceConfig{})
			if err != nil {
				t.Fatal(err)
			}
			col.Reset()
			before := env.DB.Stats().Statements
			if err := p.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := env.DB.Stats().Statements - before; got != tc.statements {
				t.Errorf("statements per instance = %d, want %d", got, tc.statements)
			}
			spans := map[obsv.SpanKind]int{}
			for _, s := range col.Spans() {
				spans[s.Kind]++
			}
			if !reflect.DeepEqual(spans, tc.spans) {
				t.Errorf("spans per instance = %v, want %v", spans, tc.spans)
			}

			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(rec.Path())
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			scan, err := journal.Scan(f)
			if err != nil || scan.Torn {
				t.Fatalf("scan journal: %v torn=%v", err, scan.Torn)
			}
			records := map[journal.Kind]int{}
			for i := range scan.Records {
				records[scan.Records[i].Kind]++
			}
			if !reflect.DeepEqual(records, tc.records) {
				t.Errorf("journal records = %v, want %v", records, tc.records)
			}
		})
	}
}
