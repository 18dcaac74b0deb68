package xdm

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBuildAndSerialize(t *testing.T) {
	row := NewElement("Row")
	row.SetAttr("id", "1")
	row.ElementWithText("ItemID", "bolt")
	row.ElementWithText("Quantity", "10")
	s := row.String()
	if !strings.Contains(s, `<Row id="1">`) || !strings.Contains(s, "<ItemID>bolt</ItemID>") {
		t.Fatalf("serialization: %s", s)
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := `<RowSet><Row id="1"><ItemID>bolt</ItemID><Quantity>10</Quantity></Row><Row id="2"><ItemID>nut</ItemID><Quantity>3</Quantity></Row></RowSet>`
	n, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "RowSet" || len(n.ChildElements()) != 2 {
		t.Fatalf("parse structure: %s", n)
	}
	again, err := Parse(n.String())
	if err != nil {
		t.Fatal(err)
	}
	if !n.Equal(again) {
		t.Fatalf("round trip mismatch:\n%s\n%s", n, again)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"<a>",
		"<a></b>",
		"<a/><b/>",
		"just text",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestTextContent(t *testing.T) {
	n := MustParse("<a>one<b>two</b>three</a>")
	if got := n.TextContent(); got != "onetwothree" {
		t.Fatalf("TextContent: %q", got)
	}
}

func TestEscaping(t *testing.T) {
	n := NewElement("a")
	n.SetText(`5 < 6 & "quotes"`)
	n.SetAttr("k", `<&>`)
	parsed := MustParse(n.String())
	if parsed.TextContent() != `5 < 6 & "quotes"` {
		t.Fatalf("text escaping: %q -> %q", n.String(), parsed.TextContent())
	}
	if v, _ := parsed.Attr("k"); v != `<&>` {
		t.Fatalf("attr escaping: %q", v)
	}
}

func TestCloneIsDeepAndDetached(t *testing.T) {
	orig := MustParse("<a><b>x</b></a>")
	cl := orig.Clone()
	if !orig.Equal(cl) {
		t.Fatal("clone differs")
	}
	cl.FirstChildElement("b").SetText("y")
	if orig.ChildText("b") != "x" {
		t.Fatal("clone mutated original")
	}
	if cl.Parent() != nil {
		t.Fatal("clone should be detached")
	}
}

func TestRemoveAndInsert(t *testing.T) {
	n := MustParse("<a><b/><c/><d/></a>")
	c := n.FirstChildElement("c")
	if !n.RemoveChild(c) {
		t.Fatal("RemoveChild failed")
	}
	if len(n.ChildElements()) != 2 {
		t.Fatalf("children after remove: %d", len(n.ChildElements()))
	}
	if n.RemoveChild(c) {
		t.Fatal("double remove should fail")
	}
	b := n.FirstChildElement("b")
	if err := n.InsertChildAfter(b, NewElement("x")); err != nil {
		t.Fatal(err)
	}
	if n.ChildElements()[1].Name != "x" {
		t.Fatalf("insert position wrong: %s", n)
	}
	if err := n.InsertChildAfter(nil, NewElement("first")); err != nil {
		t.Fatal(err)
	}
	if n.Children[0].Name != "first" {
		t.Fatalf("insert-first wrong: %s", n)
	}
	if err := n.InsertChildAfter(c, NewElement("y")); err == nil {
		t.Fatal("insert after detached node should fail")
	}
}

func TestParentAndRoot(t *testing.T) {
	n := MustParse("<a><b><c/></b></a>")
	c := n.FirstChildElement("b").FirstChildElement("c")
	if c.Parent().Name != "b" {
		t.Fatalf("parent: %s", c.Parent().Name)
	}
	if c.Root() != n {
		t.Fatal("root mismatch")
	}
}

func TestSetAttrReplaces(t *testing.T) {
	n := NewElement("a")
	n.SetAttr("k", "1")
	n.SetAttr("k", "2")
	if len(n.Attrs) != 1 {
		t.Fatalf("attrs: %v", n.Attrs)
	}
	if v, _ := n.Attr("k"); v != "2" {
		t.Fatalf("attr value: %s", v)
	}
	if _, ok := n.Attr("missing"); ok {
		t.Fatal("missing attr reported present")
	}
}

func TestIndentOutput(t *testing.T) {
	n := MustParse("<a><b>x</b></a>")
	out := n.Indent()
	if !strings.Contains(out, "\n  <b>") {
		t.Fatalf("indent: %q", out)
	}
}

// Property: serialize→parse is the identity on trees built from sanitized
// element names and text content.
func TestQuickRoundTrip(t *testing.T) {
	sanitize := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
				b.WriteRune(r)
			}
		}
		if b.Len() == 0 {
			return "x"
		}
		return b.String()
	}
	f := func(names []string, texts []string) bool {
		root := NewElement("root")
		cur := root
		for i, raw := range names {
			el := cur.Element("e" + sanitize(raw))
			if i < len(texts) {
				// Sanitize text too: XML cannot carry arbitrary control
				// characters, which is a property of XML, not of this model.
				el.SetText(sanitize(texts[i]) + " < & > ")
			}
			if i%2 == 0 {
				cur = el
			}
		}
		parsed, err := Parse(root.String())
		if err != nil {
			return false
		}
		return root.Equal(parsed)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
