package wsbus

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"wfsql/internal/sqldb"
)

func TestRegisterInvoke(t *testing.T) {
	b := New()
	b.Register("echo", Operation{In: []string{"in"}, Out: []string{"out"},
		Handler: func(in []string) ([]string, error) { return []string{in[0]}, nil }})
	if !b.Has("echo") {
		t.Fatal("Has")
	}
	resp, err := b.Invoke("echo", Message{"in": "hi"})
	if err != nil {
		t.Fatal(err)
	}
	if resp["out"] != "hi" {
		t.Fatalf("response: %v", resp)
	}
	if b.Attempts() != 1 {
		t.Fatalf("calls: %d", b.Attempts())
	}
}

func TestInvokeErrors(t *testing.T) {
	b := New()
	if _, err := b.Invoke("missing", nil); err == nil {
		t.Fatal("unknown service must error")
	}
	b.Register("fail", Operation{Handler: func([]string) ([]string, error) {
		return nil, fmt.Errorf("boom")
	}})
	if _, err := b.Invoke("fail", nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error propagation: %v", err)
	}
}

func TestLatencyInjection(t *testing.T) {
	b := New()
	b.Register("fast", Operation{Handler: func([]string) ([]string, error) { return nil, nil }})
	b.SetLatency(20 * time.Millisecond)
	start := time.Now()
	if _, err := b.Invoke("fast", nil); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("latency not applied")
	}
}

func TestOrderFromSupplier(t *testing.T) {
	svc := NewOrderFromSupplier(10)
	resp, err := svc.Handle(Message{"ItemID": "bolt", "Quantity": "7"})
	if err != nil {
		t.Fatal(err)
	}
	if resp["OrderConfirmation"] != "CONFIRMED:bolt:7" {
		t.Fatalf("confirmation: %v", resp)
	}
	if svc.Ordered("bolt") != 7 {
		t.Fatalf("ordered: %d", svc.Ordered("bolt"))
	}
	// Over capacity: rejected, not an error.
	resp, err = svc.Handle(Message{"ItemID": "bolt", "Quantity": "99"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp["OrderConfirmation"], "REJECTED:") {
		t.Fatalf("over-capacity: %v", resp)
	}
	if svc.Ordered("bolt") != 7 {
		t.Fatal("rejected order must not accumulate")
	}
	// Bad requests are faults.
	if _, err := svc.Handle(Message{"Quantity": "1"}); err == nil {
		t.Fatal("missing item must error")
	}
	if _, err := svc.Handle(Message{"ItemID": "x", "Quantity": "zero"}); err == nil {
		t.Fatal("bad quantity must error")
	}
	if _, err := svc.Handle(Message{"ItemID": "x", "Quantity": "-1"}); err == nil {
		t.Fatal("negative quantity must error")
	}
}

func TestSQLAdapterQueryAndDML(t *testing.T) {
	db := sqldb.Open("a")
	db.MustExec("CREATE TABLE t (x INTEGER, s VARCHAR)")
	b := New()
	RegisterSQLAdapter(b, "sql", db)

	resp, err := b.Invoke("sql", Message{
		"statement": "INSERT INTO t VALUES (?, ?)", "p1": "1", "p2": "one"})
	if err != nil {
		t.Fatal(err)
	}
	if resp["rowsAffected"] != "1" {
		t.Fatalf("dml response: %v", resp)
	}

	resp, err = b.Invoke("sql", Message{"statement": "SELECT x, s FROM t"})
	if err != nil {
		t.Fatal(err)
	}
	if resp["rows"] != "1" || !strings.Contains(resp["rowset"], "<s>one</s>") {
		t.Fatalf("query response: %v", resp)
	}

	if _, err := b.Invoke("sql", Message{}); err == nil {
		t.Fatal("missing statement must error")
	}
	if _, err := b.Invoke("sql", Message{"statement": "SELEC"}); err == nil {
		t.Fatal("bad SQL must error")
	}
}

// TestOperationVectorShape: a request vector must have one value per
// declared request part and a reply one per declared reply part; a
// request by name drops undeclared parts and leaves missing ones empty.
func TestOperationVectorShape(t *testing.T) {
	b := New()
	var got []string
	b.Register("pair", Operation{In: []string{"a", "b"}, Out: []string{"ab"},
		Handler: func(in []string) ([]string, error) { got = in; return []string{in[0] + in[1]}, nil }})
	b.Register("short", Operation{In: []string{"a"}, Out: []string{"x", "y"},
		Handler: func(in []string) ([]string, error) { return []string{in[0]}, nil }})
	if _, err := b.InvokeCtx(context.Background(), 0, "pair", []string{"1"}); err == nil || IsTransient(err) {
		t.Fatalf("a request of one part to a two-part operation: %v, want a permanent error", err)
	}
	if b.Attempts() != 0 {
		t.Fatalf("a malformed request was dispatched: %d attempts", b.Attempts())
	}
	if _, err := b.Invoke("short", Message{"a": "1"}); err == nil || !strings.Contains(err.Error(), "reply of 1 parts") {
		t.Fatalf("a reply missing a declared part: %v", err)
	}
	reply, err := b.Invoke("pair", Message{"b": "2", "c": "ignored"})
	if err != nil || !reflect.DeepEqual(reply, Message{"ab": "2"}) || !reflect.DeepEqual(got, []string{"", "2"}) {
		t.Fatalf("by name: request %q, reply %v, %v", got, reply, err)
	}
	if b.Attempts() != 2 || b.Successes() != 1 {
		t.Fatalf("attempts %d, successes %d, want 2 and 1", b.Attempts(), b.Successes())
	}
}

// TestSQLAdapterBindsItsPlaceholders: the adapter binds as many p<i> as
// its statement has placeholders, `?` and named, and refuses a statement
// with more than it declares.
func TestSQLAdapterBindsItsPlaceholders(t *testing.T) {
	db := sqldb.Open("a")
	db.MustExec("CREATE TABLE t (x INTEGER, s VARCHAR)")
	b := New()
	RegisterSQLAdapter(b, "sql", db)
	if _, err := b.Invoke("sql", Message{"statement": "INSERT INTO t VALUES (?, @s)", "p1": "1", "p2": "one", "p3": "unbound"}); err != nil {
		t.Fatal(err)
	}
	resp, err := b.Invoke("sql", Message{"statement": "SELECT s FROM t WHERE s = ?", "p1": "one"})
	if err != nil || resp["rows"] != "1" || !strings.Contains(resp["rowset"], "<s>one</s>") {
		t.Fatalf("query response: %v, %v", resp, err)
	}
	nine := "SELECT x FROM t WHERE x = ? OR x = ? OR x = ? OR x = ? OR x = ? OR x = ? OR x = ? OR x = ? OR x = ?"
	if _, err := b.Invoke("sql", Message{"statement": nine}); err == nil || !strings.Contains(err.Error(), "9 placeholders") {
		t.Fatalf("nine placeholders: %v", err)
	}
}
