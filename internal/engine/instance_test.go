package engine

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wfsql/internal/xdm"
	"wfsql/internal/xpath"
)

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

// TestFlowConcurrentVariableAccess: two instances of one deployment run
// at once, each on its own goroutine, writing and reading their own
// variables — lookups, scalar and document writes, string, Node and
// XPath reads — and each reads back only what it wrote. Variables hold
// no lock (an instance runs on one goroutine), so under -race this fails
// if two instances share a variable or anything a variable reaches.
func TestFlowConcurrentVariableAccess(t *testing.T) {
	n := xpath.MustCompile("$doc/n")
	d, err := New(nil).Deploy(&Process{Name: "conc",
		Variables: []VarDecl{{Name: "id", Kind: ScalarVar}, {Name: "s", Kind: ScalarVar}, {Name: "doc", Kind: XMLVar, InitXML: "<v/>"}},
		Body: NewSnippet("rw", func(ctx *Ctx) error {
			id := ctx.Inst.MustVariable("id").String()
			for j := 0; j < 200; j++ {
				want := id + strconv.Itoa(j)
				if err := ctx.SetScalar("s", want); err != nil {
					return err
				}
				if got := ctx.Inst.MustVariable("s").String(); got != want {
					return fmt.Errorf("scalar read %q, wrote %q", got, want)
				}
				doc := ctx.Inst.MustVariable("doc")
				if j%2 == 0 {
					doc.SetNode(xdm.MustParse("<v><n>" + want + "</n></v>"))
				} else {
					doc.Node().FirstChildElement("n").SetText(want)
				}
				if x, err := ctx.EvalXPath(n); err != nil || x.AsString() != want {
					return fmt.Errorf("XPath read %q (%v), wrote %q", x.AsString(), err, want)
				}
			}
			return nil
		})})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	ins := make([]*Instance, 2)
	errs := make([]error, 2)
	for g, id := range []string{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ins[g], errs[g] = d.Run(map[string]string{"id": id})
		}()
	}
	wg.Wait()
	for g, id := range []string{"a", "b"} {
		if errs[g] != nil {
			t.Fatalf("instance %s: %v", id, errs[g])
		}
		if got := ins[g].MustVariable("s").String(); got != id+"199" {
			t.Errorf("instance %s ends with s = %q", id, got)
		}
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
