package engine

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wfsql/internal/xdm"
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

// TestFlowConcurrentVariableAccess: a variable read and written from
// many goroutines at once — lookups, scalar and document writes, string
// and XPath reads — never yields a torn value. Meaningful under -race,
// where it fails without Variable's lock.
func TestFlowConcurrentVariableAccess(t *testing.T) {
	d, err := New(nil).Deploy(&Process{Name: "conc", Body: &Empty{ActivityName: "e"},
		Variables: []VarDecl{{Name: "shared", Kind: ScalarVar, Init: "0"}}})
	if err != nil {
		t.Fatal(err)
	}
	in, err := d.NewInstance(nil)
	if err != nil {
		t.Fatal(err)
	}
	doc := xdm.MustParse("<v>doc</v>")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				v := in.MustVariable("shared")
				if g%2 == 0 {
					v.SetString(fmt.Sprint(j))
				} else {
					v.SetNode(doc)
				}
				s := v.String()
				if _, err := strconv.Atoi(s); err != nil && s != "doc" {
					t.Errorf("torn read %q", s)
					return
				}
				if x := v.XPathValue(); x.AsString() == "" {
					t.Error("empty XPath read")
					return
				}
			}
		}()
	}
	wg.Wait()
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
