package orasoa

import (
	"wfsql/internal/engine"
	"wfsql/internal/journal"
)

// SQLEffect marks an activity that performs database work through the
// Oracle extension-function library (ora:query-database,
// ora:processXSQL, ...) as a journaled SQL effect. Oracle BPEL embeds SQL
// in otherwise-generic activities — an Assign whose XPath expression
// calls ora:processXSQL — so the exactly-once boundary is the enclosing
// activity and what it publishes is the listed variables (the query
// result document, the DML status), in the engine's variable dialect.
// Extension-function statements run in per-statement autocommit, so the
// memo is durable as soon as it is journaled.
func SQLEffect(inner engine.Activity, captures ...string) engine.Activity {
	return engine.Journaled(inner, journal.EffectSQL, captures...)
}
