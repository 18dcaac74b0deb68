package engine_test

import (
	"strings"
	"testing"

	"wfsql/internal/bpelxml"
)

// The activity kinds the engine no longer has. No program, example or
// document builds a flow, if, scope, throw, compensate, wait, receive or
// reply (internal/bpelxml/bpel_dialect_test.go lists the kinds that are
// built, with their issuers). A process model reaches the engine from
// outside the program only as a BPEL document, so each test below is
// named after the behaviour it once pinned and checks that a document
// holding the kind's element does not load.

// refused checks that a process document whose body is body does not
// load, with an error naming elem.
func refused(t *testing.T, elem, body string) {
	t.Helper()
	doc := `<process name="p"><variables/>` + body + `</process>`
	_, err := bpelxml.UnmarshalBISProcess(doc, nil)
	if err == nil || !strings.Contains(err.Error(), elem) {
		t.Errorf("%s: loading %s: %v, want an error naming it", elem, body, err)
	}
}

func TestFlowRunsAllBranches(t *testing.T) {
	refused(t, "flow", `<flow name="par"><sequence name="a"/><sequence name="b"/></flow>`)
}

func TestIfElse(t *testing.T) {
	refused(t, "if", `<if name="i"><condition>$x = 'a'</condition><sequence name="a"/></if>`)
	refused(t, "elseif", `<sequence name="s"><elseif><condition>1</condition><sequence name="b"/></elseif></sequence>`)
	refused(t, "else", `<sequence name="s"><else><sequence name="c"/></else></sequence>`)
}

func TestScopeFaultHandler(t *testing.T) {
	refused(t, "scope", `<scope name="s"><faultHandlers><catchAll><sequence name="h"/></catchAll></faultHandlers><sequence name="b"/></scope>`)
}

func TestScopeFinallyRunsOnFault(t *testing.T) {
	refused(t, "scope", `<scope name="s"><wid:finally><sequence name="f"/></wid:finally><sequence name="b"/></scope>`)
}

func TestCompensationRunsInReverseOrder(t *testing.T) {
	refused(t, "compensate", `<sequence name="s"><compensate name="undoAll"/></sequence>`)
}

func TestFaultedScopeRegistersNoCompensation(t *testing.T) {
	refused(t, "scope", `<scope name="s"><compensationHandler><sequence name="u"/></compensationHandler><sequence name="b"/></scope>`)
}

func TestWaitActivity(t *testing.T) {
	refused(t, "wait", `<wait name="w" for="1ms"/>`)
}

func TestReceiveAndReply(t *testing.T) {
	refused(t, "receive", `<receive name="in"><fromPart part="ItemID" toVariable="item"/></receive>`)
}

func TestOutputNilWithoutReply(t *testing.T) {
	refused(t, "reply", `<reply name="out"><toPart part="Echo" expression="$item"/></reply>`)
}
