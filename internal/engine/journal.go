package engine

import (
	"context"
	"fmt"
	"strings"

	"wfsql/internal/journal"
	"wfsql/internal/xdm"
)

// This file wires the engine to the durable instance journal
// (internal/journal): the runtime-database role the paper ascribes to
// BIS's navigator. With a journal attached, every instance creation,
// effectful activity result, dead letter and completion is written to
// the WAL, and crashed instances are resumed by deterministic replay:
// completed effects are re-applied from their memoized results (no
// duplicated side effects), and execution picks up live at the first
// un-journaled activity.

// variables is the engine's one memo dialect and the outcome of every
// effect whose visible result is process variables — Journaled's captures,
// Invoke's outputs (the variables of parts): an XML variable as
// "x:<name>" (its serialized document, "" when unset), a scalar as
// "s:<name>". Both keys of every variable are built with the activity.
type variables struct {
	ctx  *Ctx
	keys []varKey
}

// varKey is a variable's name and its two possible memo keys.
type varKey struct{ name, s, x string }

// varKeys builds the memo keys of the named variables.
func varKeys(names []string) []varKey {
	keys := make([]varKey, len(names))
	for i, name := range names {
		keys[i] = varKey{name, "s:" + name, "x:" + name}
	}
	return keys
}

func (v variables) save() (map[string]string, error) {
	memo := make(map[string]string, len(v.keys))
	for _, k := range v.keys {
		pv, err := v.ctx.Variable(k.name)
		if err != nil {
			return nil, err
		}
		if pv.Kind() != XMLVar {
			memo[k.s] = pv.String()
		} else if n := pv.doc(); n != nil {
			memo[k.x] = n.String()
		} else {
			memo[k.x] = ""
		}
	}
	return memo, nil
}

func (v variables) restore(memo map[string]string) error {
	for k, val := range memo {
		prefix, name, _ := strings.Cut(k, ":")
		switch {
		case prefix == "s" || prefix == "out": // "out:<name>" is how Invoke wrote its outputs before it shared this codec
			if err := v.ctx.SetScalar(name, val); err != nil {
				return err
			}
		case prefix == "x" && val != "":
			n, err := xdm.Parse(val)
			if err != nil {
				return fmt.Errorf("memoized document for %s: %w", name, err)
			}
			if err := v.ctx.SetNode(name, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// JournaledActivity wraps an arbitrary activity as a journaled effect:
// on completion the listed variables are captured into the memo, and on
// replay they are restored without re-executing the inner activity.
// This is how effects embedded in otherwise-generic activities (e.g.
// Oracle's ora:processXSQL inside an Assign) get the effect-then-memo guarantee.
type JournaledActivity struct {
	Inner      Activity
	EffectKind string
	Captures   []string

	keys []varKey // the captures' memo keys
}

// Journaled wraps inner as a journaled effect capturing the named
// variables.
func Journaled(inner Activity, effectKind string, captures ...string) *JournaledActivity {
	return &JournaledActivity{Inner: inner, EffectKind: effectKind, Captures: captures, keys: varKeys(captures)}
}

// Name implements Activity (transparent: the wrapper keeps the inner
// activity's name so journal records and traces line up).
func (j *JournaledActivity) Name() string { return j.Inner.Name() }

// Nested implements composite: deployment checks the inner activity too.
func (j *JournaledActivity) Nested() []Activity { return []Activity{j.Inner} }

// Execute implements Activity.
func (j *JournaledActivity) Execute(ctx *Ctx) error {
	v := variables{ctx: ctx, keys: j.keys}
	return ctx.Inst.Effect(ctx.span, j.Inner.Name(), j.EffectKind,
		func() error { return j.Inner.Execute(ctx) }, journal.Outcome{Save: v.save, Restore: v.restore})
}

// Resume rebuilds an instance from its journal and executes it to
// completion. Completed effects replay from their memos; execution
// goes live at the first activity without one. The caller must resume
// on an engine whose journal contains (or is) the journal the instance
// was recovered from, so newly executed activities append to the same
// history.
func (d *Deployment) Resume(ij *journal.InstanceJournal) (*Instance, error) {
	if ij.Process != d.Process.Name {
		return nil, fmt.Errorf("engine: instance %d belongs to process %s, not %s", ij.ID, ij.Process, d.Process.Name)
	}
	in, err := d.newInstance(ij.ID, ij.Input)
	if err != nil {
		return nil, err
	}
	in.Replay(ij)
	return in, d.Engine.executeCtx(context.Background(), in)
}

// Recover resumes every in-flight instance found in the recorder,
// matching each to its deployment by process name. It returns the
// resumed instances; instances whose process has no deployment are
// reported as errors but do not stop recovery of the others.
func Recover(rec *journal.Recorder, deployments map[string]*Deployment) ([]*Instance, error) {
	var (
		out     []*Instance
		firstEr error
	)
	for _, ij := range rec.InFlight() {
		dep, ok := deployments[ij.Process]
		if !ok {
			if firstEr == nil {
				firstEr = fmt.Errorf("engine: no deployment for recovered process %s (instance %d)", ij.Process, ij.ID)
			}
			continue
		}
		in, err := dep.Resume(ij)
		if in != nil {
			out = append(out, in)
		}
		if err != nil && firstEr == nil {
			firstEr = err
		}
	}
	return out, firstEr
}
