package orasoa

import (
	"fmt"

	"wfsql/internal/engine"
	"wfsql/internal/xdm"
	"wfsql/internal/xpath"
)

// This file implements the Oracle-specific XPath operations denoted by the
// bpelx namespace that allow updating, inserting, and deleting local XML
// data — the mechanism by which Oracle covers the complete Tuple IUD
// Pattern at an abstract level (Table II), where IBM needs Java-Snippet
// workarounds for insert and delete.

// BpelxOpKind enumerates the supported assign extension operations.
type BpelxOpKind int

// bpelx assign operations.
const (
	// OpCopy is the standard BPEL copy (covers update).
	OpCopy BpelxOpKind = iota
	// OpInsertAfter inserts a new element after the node selected by the
	// target path (or as first child of the target variable's root when
	// the path selects nothing and Append is set).
	OpInsertAfter
	// OpAppend appends a new element as the last child of the selected
	// node.
	OpAppend
	// OpRemove deletes the selected node(s).
	OpRemove
)

// BpelxOp is one extension operation of a BpelxAssign.
type BpelxOp struct {
	Kind   BpelxOpKind
	From   *xpath.Expr // source expression (copy/insertAfter/append)
	ToVar  string
	ToPath *xpath.Expr // target selection within ToVar
}

// BpelxAssign is an assign activity extended with bpelx operations.
type BpelxAssign struct {
	ActivityName string
	Ops          []BpelxOp
}

// NewBpelxAssign builds an extended assign activity.
func NewBpelxAssign(name string) *BpelxAssign { return &BpelxAssign{ActivityName: name} }

// Copy adds a standard copy (update semantics).
func (a *BpelxAssign) Copy(fromExpr, toVar, toPath string) *BpelxAssign {
	a.Ops = append(a.Ops, BpelxOp{Kind: OpCopy, From: xpath.MustCompile(fromExpr),
		ToVar: toVar, ToPath: xpath.MustCompile(toPath)})
	return a
}

// InsertAfter adds a bpelx:insertAfter of the from-node after the node
// selected by toPath.
func (a *BpelxAssign) InsertAfter(fromExpr, toVar, toPath string) *BpelxAssign {
	a.Ops = append(a.Ops, BpelxOp{Kind: OpInsertAfter, From: xpath.MustCompile(fromExpr),
		ToVar: toVar, ToPath: xpath.MustCompile(toPath)})
	return a
}

// Append adds a bpelx:append of the from-node under the node selected by
// toPath.
func (a *BpelxAssign) Append(fromExpr, toVar, toPath string) *BpelxAssign {
	a.Ops = append(a.Ops, BpelxOp{Kind: OpAppend, From: xpath.MustCompile(fromExpr),
		ToVar: toVar, ToPath: xpath.MustCompile(toPath)})
	return a
}

// Remove adds a bpelx:remove of the node(s) selected by toPath.
func (a *BpelxAssign) Remove(toVar, toPath string) *BpelxAssign {
	a.Ops = append(a.Ops, BpelxOp{Kind: OpRemove, ToVar: toVar, ToPath: xpath.MustCompile(toPath)})
	return a
}

// Name implements engine.Activity.
func (a *BpelxAssign) Name() string { return a.ActivityName }

// Execute implements engine.Activity.
func (a *BpelxAssign) Execute(ctx *engine.Ctx) error {
	for i, op := range a.Ops {
		if err := a.execOp(ctx, op); err != nil {
			return fmt.Errorf("%s: operation %d: %w", a.ActivityName, i+1, err)
		}
	}
	return nil
}

func (a *BpelxAssign) execOp(ctx *engine.Ctx, op BpelxOp) error {
	target, err := ctx.Variable(op.ToVar)
	if err != nil {
		return err
	}
	if target.Kind() != engine.XMLVar || target.Node() == nil {
		return fmt.Errorf("bpelx: target %s is not an XML variable", op.ToVar)
	}
	// Copy the shared instance context before rebasing it on the target
	// document — the cached one must stay Node-less.
	tctx := *ctx.XPathContext()
	tctx.Node = target.Node()
	sel, err := op.ToPath.Eval(&tctx)
	if err != nil {
		return err
	}

	var fromVal xpath.Value
	if op.From != nil {
		fromVal, err = ctx.EvalXPath(op.From)
		if err != nil {
			return err
		}
	}
	// Insert and append place a copy of the source node itself.
	var fromNode *xdm.Node
	if n := fromVal.FirstNode(); n != nil && op.Kind != OpCopy {
		fromNode = n.Clone()
	}

	switch op.Kind {
	case OpCopy:
		tn := sel.FirstNode()
		if tn == nil {
			return fmt.Errorf("bpelx: copy target path selected no node")
		}
		engine.ReplaceContent(tn, fromVal)
	case OpInsertAfter:
		tn := sel.FirstNode()
		if tn == nil {
			return fmt.Errorf("bpelx: insertAfter target path selected no node")
		}
		if fromNode == nil {
			return fmt.Errorf("bpelx: insertAfter requires an element source")
		}
		parent := tn.Parent()
		if parent == nil {
			return fmt.Errorf("bpelx: cannot insert after the document root")
		}
		return parent.InsertChildAfter(tn, fromNode)
	case OpAppend:
		tn := sel.FirstNode()
		if tn == nil {
			return fmt.Errorf("bpelx: append target path selected no node")
		}
		if fromNode == nil {
			return fmt.Errorf("bpelx: append requires an element source")
		}
		tn.AppendChild(fromNode)
	case OpRemove:
		if len(sel.Nodes) == 0 {
			return fmt.Errorf("bpelx: remove path selected no node")
		}
		for _, n := range sel.Nodes {
			parent := n.Parent()
			if parent == nil {
				return fmt.Errorf("bpelx: cannot remove the document root")
			}
			parent.RemoveChild(n)
		}
	}
	return nil
}
