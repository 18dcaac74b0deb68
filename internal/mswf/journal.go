package mswf

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"wfsql/internal/dataset"
	"wfsql/internal/journal"
	"wfsql/internal/xdm"
)

// This file wires the WF runtime to the durable instance journal. WF's
// real-world counterpart is the SqlWorkflowPersistenceService: workflow
// state checkpointed to a database so the host can crash and resume.
// Here the persistence.go XML snapshot of the initial host variables is
// journaled at instance creation, every effectful activity (SQL
// database activity, web-service invoke) journals its memoized result,
// and Resume rebuilds the context from the snapshot and replays the
// memos in order.

// hostVars is the WF runtime's one memo dialect: the host variables an
// effectful activity publishes. A web-service invoke publishes strings
// as "out:<name>" (outputs: those keys, fixed once per activity); the SQL
// database activity the DataSet a query materialized (in the persistence
// service's XML) as "dataset", or a DML row count as "rows" — two keys
// that carry no name, since the restoring activity knows it.
type hostVars struct {
	c       *Context
	outputs []string
	dataSet string
	rows    string
}

func (h hostVars) save() (map[string]string, error) {
	memo := make(map[string]string, len(h.outputs)+1)
	for _, k := range h.outputs {
		memo[k] = h.c.GetString(k[len("out:"):])
	}
	v, _ := h.c.Get(h.dataSet)
	if ds, ok := v.(*dataset.DataSet); ok {
		memo["dataset"] = persistDataSet(ds)
	}
	v, _ = h.c.Get(h.rows)
	if n, ok := v.(int64); ok {
		memo["rows"] = strconv.FormatInt(n, 10)
	}
	return memo, nil
}

func (h hostVars) restore(memo map[string]string) error {
	for k, v := range memo {
		switch {
		case strings.HasPrefix(k, "out:"):
			h.c.Set(k[4:], v)
		case k == "dataset" && h.dataSet != "":
			el, err := xdm.Parse(v)
			if err != nil {
				return fmt.Errorf("memoized dataset: %w", err)
			}
			ds, err := restoreDataSet(el)
			if err != nil {
				return fmt.Errorf("memoized dataset: %w", err)
			}
			h.c.Set(h.dataSet, ds)
		case k == "rows" && h.rows != "":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("memoized row count: %w", err)
			}
			h.c.Set(h.rows, n)
		}
	}
	return nil
}

// Resume rebuilds a crashed instance from its journal — host variables
// from the instance-created snapshot, memoized effect results queued
// for replay — and executes the workflow to completion.
func (rt *Runtime) Resume(root Activity, ij *journal.InstanceJournal) (*Context, error) {
	var c *Context
	if state := ij.Input["state"]; state != "" {
		var err error
		c, err = rt.LoadState(state)
		if err != nil {
			return nil, fmt.Errorf("mswf: resume instance %d: %w", ij.ID, err)
		}
	} else {
		c = &Context{Runtime: rt, vars: map[string]any{}}
	}
	rt.Open(&c.Instance, ij.ID)
	return c, rt.run(context.Background(), c, root, c.Replay(ij))
}
