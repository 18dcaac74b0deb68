package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"wfsql/internal/xdm"
)

// mkScope builds a scope whose body appends "do:<n>" and whose
// compensation appends "undo:<n>" to the shared log.
func mkScope(n string, log *[]string) *Scope {
	return &Scope{
		ActivityName: "scope_" + n,
		Body: NewSnippet("do_"+n, func(ctx *Ctx) error {
			*log = append(*log, "do:"+n)
			return nil
		}),
		Compensation: NewSnippet("undo_"+n, func(ctx *Ctx) error {
			*log = append(*log, "undo:"+n)
			return nil
		}),
	}
}

func TestCompensationRunsInReverseOrder(t *testing.T) {
	var log []string
	p := &Process{
		Name: "comp",
		Body: &Scope{
			ActivityName: "outer",
			Body: NewSequence("main",
				mkScope("a", &log),
				mkScope("b", &log),
				mkScope("c", &log),
				&Throw{ActivityName: "boom", FaultName: "late"},
			),
			FaultHandler: &Compensate{ActivityName: "compensate"},
		},
	}
	in := deployAndRun(t, New(nil), p, nil)
	if in.State() != StateCompleted {
		t.Fatalf("state: %s", in.State())
	}
	want := "do:a,do:b,do:c,undo:c,undo:b,undo:a"
	if got := strings.Join(log, ","); got != want {
		t.Fatalf("log: %s, want %s", got, want)
	}
}

func TestCompensationRunsAtMostOnce(t *testing.T) {
	var log []string
	p := &Process{
		Name: "comp2",
		Body: NewSequence("main",
			mkScope("a", &log),
			&Compensate{ActivityName: "first"},
			&Compensate{ActivityName: "second"}, // nothing left to compensate
		),
	}
	deployAndRun(t, New(nil), p, nil)
	want := "do:a,undo:a"
	if got := strings.Join(log, ","); got != want {
		t.Fatalf("log: %s, want %s", got, want)
	}
}

func TestFaultedScopeRegistersNoCompensation(t *testing.T) {
	var log []string
	faulty := &Scope{
		ActivityName: "faulty",
		Body:         &Throw{ActivityName: "boom", FaultName: "x"},
		FaultHandler: &Empty{ActivityName: "absorb"},
		Compensation: NewSnippet("undo_faulty", func(ctx *Ctx) error {
			log = append(log, "undo:faulty")
			return nil
		}),
	}
	p := &Process{
		Name: "comp3",
		Body: NewSequence("main",
			mkScope("ok", &log),
			faulty,
			&Compensate{ActivityName: "compensate"},
		),
	}
	deployAndRun(t, New(nil), p, nil)
	got := strings.Join(log, ",")
	if strings.Contains(got, "undo:faulty") {
		t.Fatalf("faulted scope compensated: %s", got)
	}
	if !strings.Contains(got, "undo:ok") {
		t.Fatalf("completed scope not compensated: %s", got)
	}
}

func TestCompensationHandlerFaultAbortsChain(t *testing.T) {
	var log []string
	bad := &Scope{
		ActivityName: "bad",
		Body:         &Empty{ActivityName: "noop"},
		Compensation: &Throw{ActivityName: "boomComp", FaultName: "compFail"},
	}
	p := &Process{
		Name: "comp4",
		Body: NewSequence("main",
			mkScope("a", &log),
			bad, // registered after a, so compensated first
			&Compensate{ActivityName: "compensate"},
		),
	}
	d, _ := New(nil).Deploy(p)
	if _, err := d.Run(nil); err == nil {
		t.Fatal("expected compensation fault")
	}
	if strings.Contains(strings.Join(log, ","), "undo:a") {
		t.Fatal("chain continued past faulting handler")
	}
}

func TestWaitActivity(t *testing.T) {
	p := &Process{Name: "wait", Body: &Wait{ActivityName: "w", Duration: 10 * time.Millisecond}}
	start := time.Now()
	deployAndRun(t, New(nil), p, nil)
	if time.Since(start) < 8*time.Millisecond {
		t.Fatal("wait did not wait")
	}
}

func TestReceiveAndReply(t *testing.T) {
	p := &Process{
		Name: "rr",
		Variables: []VarDecl{
			{Name: "item", Kind: ScalarVar},
			{Name: "qty", Kind: ScalarVar},
			{Name: "note", Kind: ScalarVar, Init: "unset"},
		},
		Body: NewSequence("main",
			NewReceive("receive").
				Part("ItemID", "item").
				Part("Quantity", "qty").
				OptionalPart("Note", "note"),
			NewReply("reply").
				Part("Echo", "$item").
				Part("Doubled", "$qty + $qty"),
		),
	}
	d, err := New(nil).Deploy(p)
	if err != nil {
		t.Fatal(err)
	}
	in, err := d.Run(map[string]string{"ItemID": "bolt", "Quantity": "7"})
	if err != nil {
		t.Fatal(err)
	}
	out := in.Output()
	if out["Echo"] != "bolt" || out["Doubled"] != "14" {
		t.Fatalf("output message: %v", out)
	}
	if in.MustVariable("note").String() != "unset" {
		t.Fatal("optional part overwrote default")
	}

	// Missing required part faults.
	if _, err := d.Run(map[string]string{"ItemID": "x"}); err == nil {
		t.Fatal("missing required part must fault")
	}

	// Input parts need not match variable names when a Receive exists.
	if _, err := d.Run(map[string]string{"ItemID": "a", "Quantity": "1", "Extra": "ignored"}); err != nil {
		t.Fatalf("extra message part should be allowed with Receive: %v", err)
	}
}

func TestOutputNilWithoutReply(t *testing.T) {
	p := &Process{Name: "noreply", Body: &Empty{ActivityName: "e"}}
	d, _ := New(nil).Deploy(p)
	in, _ := d.Run(nil)
	if in.Output() != nil {
		t.Fatal("output should be nil without a Reply")
	}
}

func TestCtxHelpersAndContextStore(t *testing.T) {
	p := &Process{
		Name:      "helpers",
		Variables: []VarDecl{{Name: "doc", Kind: XMLVar}, {Name: "s", Kind: ScalarVar}},
		Body: NewSnippet("use", func(ctx *Ctx) error {
			if err := ctx.SetNode("doc", xdm.MustParse("<a><b>1</b></a>")); err != nil {
				return err
			}
			ctx.Inst.SetContext("k", 42)
			if v, ok := ctx.Inst.Context("k"); !ok || v.(int) != 42 {
				return errors.New("context store failed")
			}
			if _, ok := ctx.Inst.Context("missing"); ok {
				return errors.New("missing key reported present")
			}
			if err := ctx.SetNode("missing", xdm.NewElement("x")); err == nil {
				return errors.New("SetNode on undeclared variable must fail")
			}
			if err := ctx.SetScalar("missing", "x"); err == nil {
				return errors.New("SetScalar on undeclared variable must fail")
			}
			return nil
		}),
	}
	in := deployAndRun(t, New(nil), p, nil)
	if in.MustVariable("doc").Node().ChildText("b") != "1" {
		t.Fatal("SetNode failed")
	}
}

func TestGetVariableDataBuiltin(t *testing.T) {
	p := &Process{
		Name: "gvd",
		Variables: []VarDecl{
			{Name: "doc", Kind: XMLVar, InitXML: "<a><b>7</b></a>"},
			{Name: "out", Kind: ScalarVar},
			{Name: "s", Kind: ScalarVar, Init: "scalar"},
		},
		Body: NewSequence("m",
			NewAssign("a1").Copy("bpel:getVariableData('doc', 'b')", "out"),
		),
	}
	in := deployAndRun(t, New(nil), p, nil)
	if in.MustVariable("out").String() != "7" {
		t.Fatalf("getVariableData: %q", in.MustVariable("out").String())
	}

	// Error paths: wrong arity, unknown variable, path on scalar,
	// unknown extension function with no process resolver.
	for _, expr := range []string{
		"bpel:getVariableData()",
		"bpel:getVariableData('nope')",
		"bpel:getVariableData('s', 'b')",
		"other:unknownFn(1)",
	} {
		p := &Process{
			Name:      "bad",
			Variables: []VarDecl{{Name: "s", Kind: ScalarVar}, {Name: "out", Kind: ScalarVar}},
			Body:      NewAssign("a").Copy(expr, "out"),
		}
		d, _ := New(nil).Deploy(p)
		if _, err := d.Run(nil); err == nil {
			t.Errorf("%s: expected error", expr)
		}
	}
}

func TestFlowConcurrentVariableAccess(t *testing.T) {
	// Many branches increment independent variables; the variable table
	// must tolerate concurrent access.
	var decls []VarDecl
	var branches []Activity
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("v%d", i)
		decls = append(decls, VarDecl{Name: name, Kind: ScalarVar, Init: "0"})
		branches = append(branches, NewSnippet("set_"+name, func(ctx *Ctx) error {
			for j := 0; j < 50; j++ {
				cur, err := ctx.Inst.MustVariable(name).Int()
				if err != nil {
					return err
				}
				if err := ctx.SetScalar(name, fmt.Sprint(cur+1)); err != nil {
					return err
				}
			}
			return nil
		}))
	}
	p := &Process{Name: "conc", Variables: decls, Body: NewFlow("par", branches...)}
	in := deployAndRun(t, New(nil), p, nil)
	for i := 0; i < 16; i++ {
		v, _ := in.MustVariable(fmt.Sprintf("v%d", i)).Int()
		if v != 50 {
			t.Fatalf("v%d = %d", i, v)
		}
	}
}

func TestSequenceAppendAndDataSourceNames(t *testing.T) {
	s := NewSequence("s").Append(&Empty{ActivityName: "a"}, &Empty{ActivityName: "b"})
	if len(s.Children) != 2 {
		t.Fatal("Append")
	}
	e := New(nil)
	if len(e.DataSourceNames()) != 0 {
		t.Fatal("expected no data sources")
	}
}

func TestFuncCondition(t *testing.T) {
	n := 0
	p := &Process{Name: "fc", Body: NewWhile("w",
		FuncCondition(func(ctx *Ctx) (bool, error) { return n < 3, nil }),
		NewSnippet("inc", func(ctx *Ctx) error { n++; return nil }))}
	deployAndRun(t, New(nil), p, nil)
	if n != 3 {
		t.Fatalf("iterations: %d", n)
	}
}

func TestFaultUnwrap(t *testing.T) {
	inner := errors.New("root cause")
	f := &Fault{Name: "x", Activity: "a", Wrapped: inner}
	if !errors.Is(f, inner) {
		t.Fatal("Unwrap")
	}
	if !strings.Contains(f.Error(), "root cause") {
		t.Fatalf("Error(): %s", f.Error())
	}
}
