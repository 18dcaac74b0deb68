package mswf

import (
	"reflect"
	"testing"

	"wfsql/internal/journal"
	"wfsql/internal/obsv"
)

// TestSaveRunsOnlyForAJournal is the WF runtime's half of the engine test
// of the same name: a detached run never calls Save, a journaled run once
// per effect, a resumed one restores instead of running the effect — and
// its instance span, alone, notes how many memos it was handed.
func TestSaveRunsOnlyForAJournal(t *testing.T) {
	var effects, saves, restores int
	out := journal.Outcome{
		Save:    func() (map[string]string, error) { saves++; return map[string]string{"k": "v"}, nil },
		Restore: func(memo map[string]string) error { restores += len(memo); return nil },
	}
	rt := NewRuntime()
	col := obsv.NewCollector()
	o := obsv.New()
	o.Tracer.AddSink(col)
	rt.SetObservability(o)
	root := NewCode("step", func(c *Context) error {
		return c.Effect(c.Current(), "step", journal.EffectSQL, func() error { effects++; return nil }, out)
	})
	check := func(when string, wantEffects, wantSaves, wantRestores int) {
		t.Helper()
		if effects != wantEffects || saves != wantSaves || restores != wantRestores {
			t.Fatalf("%s: %d effects, %d saves, %d restores; want %d, %d, %d",
				when, effects, saves, restores, wantEffects, wantSaves, wantRestores)
		}
	}

	if _, err := rt.Run(root, nil); err != nil {
		t.Fatal(err)
	}
	check("detached", 1, 0, 0)

	rec, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	rt.AttachJournal(rec)
	c, err := rt.Run(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("journaled", 2, 1, 0)

	if _, err := rt.Resume(root, &journal.InstanceJournal{ID: c.ID + 1, Process: "step",
		Memos: map[string][]journal.Memo{"step": {{Occurrence: 1, Kind: journal.EffectSQL, Data: map[string]string{"k": "v"}}}}}); err != nil {
		t.Fatal(err)
	}
	check("resumed", 2, 1, 1)

	var memos []string
	for _, s := range col.ByKind(obsv.KindInstance) {
		memos = append(memos, s.Attrs["memos"])
	}
	if want := []string{"", "", "1"}; !reflect.DeepEqual(memos, want) {
		t.Fatalf("memos notes on the detached, journaled and resumed instance spans: %q, want %q", memos, want)
	}
}
