package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"wfsql/internal/obsv"
	"wfsql/internal/wsbus"
)

func deployAndRun(t *testing.T, e *Engine, p *Process, input map[string]string) *Instance {
	t.Helper()
	d, err := e.Deploy(p)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	in, err := d.Run(input)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return in
}

func TestSequenceOrder(t *testing.T) {
	var order []string
	mk := func(n string) Activity {
		return NewSnippet(n, func(ctx *Ctx) error {
			order = append(order, n)
			return nil
		})
	}
	p := &Process{Name: "seq", Body: NewSequence("main", mk("a"), mk("b"), mk("c"))}
	deployAndRun(t, New(nil), p, nil)
	if strings.Join(order, ",") != "a,b,c" {
		t.Fatalf("order: %v", order)
	}
}

func TestWhileWithXPathCondition(t *testing.T) {
	p := &Process{
		Name: "loop",
		Variables: []VarDecl{
			{Name: "i", Kind: ScalarVar, Init: "0"},
			{Name: "total", Kind: ScalarVar, Init: "0"},
		},
		Body: NewWhile("w", Cond("$i <= 4"), NewSnippet("inc", func(ctx *Ctx) error {
			i, _ := ctx.Inst.MustVariable("i").Int()
			tot, _ := ctx.Inst.MustVariable("total").Int()
			ctx.SetScalar("i", fmt.Sprint(i+1))
			return ctx.SetScalar("total", fmt.Sprint(tot+i))
		})),
	}
	in := deployAndRun(t, New(nil), p, nil)
	if got := in.MustVariable("total").String(); got != "10" {
		t.Fatalf("total: %s", got)
	}
}

func TestAssignWholeVariable(t *testing.T) {
	p := &Process{
		Name: "assign",
		Variables: []VarDecl{
			{Name: "src", Kind: ScalarVar, Init: "hello"},
			{Name: "dst", Kind: ScalarVar},
		},
		Body: NewAssign("a").Copy("$src", "dst"),
	}
	in := deployAndRun(t, New(nil), p, nil)
	if in.MustVariable("dst").String() != "hello" {
		t.Fatalf("dst: %s", in.MustVariable("dst").String())
	}
}

func TestAssignXPathIntoDocument(t *testing.T) {
	p := &Process{
		Name: "assign2",
		Variables: []VarDecl{
			{Name: "doc", Kind: XMLVar, InitXML: "<order><item>bolt</item><qty>1</qty></order>"},
			{Name: "item", Kind: ScalarVar},
		},
		Body: NewSequence("s",
			// Extract with a path.
			NewAssign("get").Copy("$doc/item", "item"),
			// Update a node in place (Random Set Access + Tuple update).
			NewAssign("set").CopyTo("'99'", "doc", "qty"),
		),
	}
	in := deployAndRun(t, New(nil), p, nil)
	if in.MustVariable("item").String() != "bolt" {
		t.Fatalf("item: %q", in.MustVariable("item").String())
	}
	if got := in.MustVariable("doc").Node().ChildText("qty"); got != "99" {
		t.Fatalf("qty: %q", got)
	}
}

func TestAssignElementCopy(t *testing.T) {
	p := &Process{
		Name: "assign3",
		Variables: []VarDecl{
			{Name: "a", Kind: XMLVar, InitXML: "<x><v>1</v></x>"},
			{Name: "b", Kind: XMLVar, InitXML: "<y><v>0</v></y>"},
		},
		Body: NewAssign("cp").CopyTo("$a/v", "b", "v"),
	}
	in := deployAndRun(t, New(nil), p, nil)
	if got := in.MustVariable("b").Node().ChildText("v"); got != "1" {
		t.Fatalf("copied element content: %q", got)
	}
}

func TestAssignToMissingNodeFails(t *testing.T) {
	p := &Process{
		Name:      "assign4",
		Variables: []VarDecl{{Name: "doc", Kind: XMLVar, InitXML: "<a/>"}},
		Body:      NewAssign("bad").CopyTo("'x'", "doc", "nope"),
	}
	d, _ := New(nil).Deploy(p)
	if _, err := d.Run(nil); err == nil {
		t.Fatal("expected error for missing to-path node")
	}
}

func TestInvoke(t *testing.T) {
	bus := wsbus.New()
	svc := wsbus.NewOrderFromSupplier(0)
	bus.Register("OrderFromSupplier", svc.Operation())
	e := New(bus)
	p := &Process{
		Name: "call",
		Variables: []VarDecl{
			{Name: "item", Kind: ScalarVar, Init: "bolt"},
			{Name: "qty", Kind: ScalarVar, Init: "7"},
			{Name: "conf", Kind: ScalarVar},
		},
		Body: NewInvoke("inv", "OrderFromSupplier").
			In("ItemID", "$item").In("Quantity", "$qty").
			Out("OrderConfirmation", "conf"),
	}
	in := deployAndRun(t, e, p, nil)
	if got := in.MustVariable("conf").String(); got != "CONFIRMED:bolt:7" {
		t.Fatalf("confirmation: %q", got)
	}
	if svc.Ordered("bolt") != 7 {
		t.Fatalf("service state: %d", svc.Ordered("bolt"))
	}
}

func TestInvokeUnknownService(t *testing.T) {
	e := New(wsbus.New())
	p := &Process{Name: "bad", Body: NewInvoke("inv", "NoSuch")}
	d, _ := e.Deploy(p)
	if _, err := d.Run(nil); err == nil {
		t.Fatal("expected error")
	}
}

// collect attaches an observability bundle to e and returns the
// collector its spans land in.
func collect(e *Engine) *obsv.Collector {
	col := obsv.NewCollector()
	o := obsv.New()
	o.Tracer.AddSink(col)
	e.SetObservability(o)
	return col
}

func TestInstanceStateAndTrace(t *testing.T) {
	p := &Process{
		Name: "traced",
		Body: NewSequence("main",
			&Empty{ActivityName: "e1"},
			&Empty{ActivityName: "e2"},
		),
	}
	e := New(nil)
	col := collect(e)
	in := deployAndRun(t, e, p, nil)
	if in.State() != StateCompleted {
		t.Fatalf("state: %s", in.State())
	}
	seq := col.ByName("main")
	if len(seq) != 1 || col.ByName("traced")[0].ID != seq[0].Parent {
		t.Fatalf("want main under the instance span:\n%s", col.TreeString())
	}
	var names []string
	for _, s := range col.Children(seq[0].ID) {
		names = append(names, s.Name+":"+string(s.Outcome))
	}
	if got := strings.Join(names, " "); got != "e1:ok e2:ok" {
		t.Fatalf("activity spans under main: %s", got)
	}
}

func TestFaultedState(t *testing.T) {
	p := &Process{Name: "f", Body: NewSnippet("t", func(ctx *Ctx) error {
		return &Fault{Name: "x", Activity: "t"}
	})}
	d, _ := New(nil).Deploy(p)
	in, err := d.Run(nil)
	if err == nil {
		t.Fatal("expected fault")
	}
	if in.State() != StateFaulted || in.Fault() == nil {
		t.Fatalf("state=%s fault=%v", in.State(), in.Fault())
	}
}

func TestOnCompleteCallbacks(t *testing.T) {
	var got []string
	p := &Process{Name: "cb", Body: NewSnippet("register", func(ctx *Ctx) error {
		ctx.Inst.OnComplete(func(err error) { got = append(got, "first") })
		ctx.Inst.OnComplete(func(err error) { got = append(got, "second") })
		return nil
	})}
	deployAndRun(t, New(nil), p, nil)
	// LIFO, like defers: later registrations run first.
	if strings.Join(got, ",") != "second,first" {
		t.Fatalf("callback order: %v", got)
	}
}

func TestDeployValidation(t *testing.T) {
	e := New(nil)
	cases := []*Process{
		{Name: "", Body: &Empty{ActivityName: "e"}},
		{Name: "nobody"},
		{Name: "dupvars", Body: &Empty{ActivityName: "e"},
			Variables: []VarDecl{{Name: "v"}, {Name: "v"}}},
		{Name: "unnamed", Body: &Empty{}},
	}
	for i, p := range cases {
		if _, err := e.Deploy(p); err == nil {
			t.Errorf("case %d: expected deploy error", i)
		}
	}
}

func TestInputBinding(t *testing.T) {
	p := &Process{
		Name:      "in",
		Variables: []VarDecl{{Name: "x", Kind: ScalarVar}},
		Body:      &Empty{ActivityName: "e"},
	}
	d, _ := New(nil).Deploy(p)
	in, err := d.Run(map[string]string{"x": "42"})
	if err != nil {
		t.Fatal(err)
	}
	if in.MustVariable("x").String() != "42" {
		t.Fatal("input not bound")
	}
	if _, err := d.Run(map[string]string{"nope": "1"}); err == nil {
		t.Fatal("expected error for unknown input")
	}
}

func TestInstanceRunTwiceFails(t *testing.T) {
	p := &Process{Name: "once", Body: &Empty{ActivityName: "e"}}
	e := New(nil)
	d, _ := e.Deploy(p)
	in, _ := d.NewInstance(nil)
	if err := e.executeCtx(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	if err := e.executeCtx(context.Background(), in); err == nil {
		t.Fatal("expected error on re-execution")
	}
}

func TestDataSourceRegistry(t *testing.T) {
	e := New(nil)
	if _, err := e.DataSource("missing"); err == nil {
		t.Fatal("expected error for unknown data source")
	}
}

// TestTraceListener: a span sink added to the engine's tracer sees every
// activity of every instance, labelled with its instance.
func TestTraceListener(t *testing.T) {
	e := New(nil)
	col := collect(e)
	p := &Process{Name: "mon", Body: &Empty{ActivityName: "x"}}
	d, _ := e.Deploy(p)
	var want []string
	for i := 0; i < 2; i++ {
		in, err := d.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("%d:x", in.ID))
	}
	var got []string
	for _, s := range col.ByKind(obsv.KindActivity) {
		got = append(got, fmt.Sprintf("%d:%s", s.Instance, s.Name))
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("sink saw %v, want %v", got, want)
	}
}

func TestDescribe(t *testing.T) {
	p := &Process{Name: "d", Mode: ShortRunning,
		Body: NewSequence("main", &Empty{ActivityName: "x"})}
	d, _ := New(nil).Deploy(p)
	s := d.Describe()
	if !strings.Contains(s, "short-running") || !strings.Contains(s, "main") {
		t.Fatalf("describe: %s", s)
	}
}
