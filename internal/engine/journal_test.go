package engine

import (
	"testing"

	"wfsql/internal/journal"
	"wfsql/internal/wsbus"
)

// TestSaveRunsOnlyForAJournal: what an effect publishes is asked for by
// the protocol, not built by the effect. A detached run never calls Save
// (there is nobody to write the memo), a journaled run calls it once per
// effect, and a resumed one restores instead of running the effect.
func TestSaveRunsOnlyForAJournal(t *testing.T) {
	var effects, saves, restores int
	out := journal.Outcome{
		Save:    func() (map[string]string, error) { saves++; return map[string]string{"k": "v"}, nil },
		Restore: func(memo map[string]string) error { restores += len(memo); return nil },
	}
	e := New(wsbus.New())
	d, err := e.Deploy(&Process{Name: "P", Body: NewSnippet("step", func(ctx *Ctx) error {
		return ctx.Inst.Effect(ctx.Span(), "step", journal.EffectSQL, func() error { effects++; return nil }, out)
	})})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, wantEffects, wantSaves, wantRestores int) {
		t.Helper()
		if effects != wantEffects || saves != wantSaves || restores != wantRestores {
			t.Fatalf("%s: %d effects, %d saves, %d restores; want %d, %d, %d",
				when, effects, saves, restores, wantEffects, wantSaves, wantRestores)
		}
	}

	if _, err := d.Run(nil); err != nil {
		t.Fatal(err)
	}
	check("detached", 1, 0, 0)

	rec, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	e.AttachJournal(rec)
	in, err := d.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	check("journaled", 2, 1, 0)

	// The instance again, as recovery would find it had it died after
	// the memo: created, one effect journaled, not complete.
	if _, err := d.Resume(&journal.InstanceJournal{ID: in.ID + 1, Process: "P",
		Memos: map[string][]journal.Memo{"step": {{Occurrence: 1, Kind: journal.EffectSQL, Data: map[string]string{"k": "v"}}}}}); err != nil {
		t.Fatal(err)
	}
	check("resumed", 2, 1, 1)
}
