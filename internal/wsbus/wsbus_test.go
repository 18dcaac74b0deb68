package wsbus

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wfsql/internal/sqldb"
)

func TestRegisterInvoke(t *testing.T) {
	b := New()
	b.Register("echo", func(req Message) (Message, error) {
		return Message{"out": req["in"]}, nil
	})
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
	b.Register("fail", func(req Message) (Message, error) {
		return nil, fmt.Errorf("boom")
	})
	if _, err := b.Invoke("fail", nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error propagation: %v", err)
	}
}

func TestLatencyInjection(t *testing.T) {
	b := New()
	b.Register("fast", func(req Message) (Message, error) { return Message{}, nil })
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
