// Package patterns implements the paper's primary contribution: the
// taxonomy of nine data management patterns for accessing and processing
// data in business processes (Figure 2), a capability model for SQL
// support in workflow products, and generators that regenerate the
// paper's Table I (general information and data management capabilities)
// and Table II (data management pattern support).
//
// Unlike the paper — which could only assert support levels in prose —
// every cell of Table II here is backed by an *executable conformance
// case* that drives the corresponding product reproduction against a live
// database and verifies the observable effect. The tables are derived
// from the running code.
package patterns

import "fmt"

// Pattern enumerates the paper's data management patterns.
type Pattern int

// The nine data management patterns of Figure 2. The first four concern
// external data (managed by a database system); the last five concern
// internal data (a data cache in the process space).
const (
	// Query expresses the need for querying external data by means of SQL
	// queries; results are stored externally or materialized in the
	// process space.
	Query Pattern = iota
	// SetIUD covers set-oriented INSERT, UPDATE, and DELETE on external
	// data via SQL statements.
	SetIUD
	// DataSetup covers executing DDL statements for configuration and
	// setup purposes during process execution.
	DataSetup
	// StoredProcedure covers calling stored procedures on external data.
	StoredProcedure
	// SetRetrieval covers retrieving external data and materializing it
	// in a set-oriented data structure in the process space — a cache
	// holding no connection to the original source.
	SetRetrieval
	// SeqSetAccess covers sequential (cursor-style) access to the cache.
	SeqSetAccess
	// RandomSetAccess covers random access to the cache.
	RandomSetAccess
	// TupleIUD covers insert, update, and delete on the cache.
	TupleIUD
	// Synchronization covers synchronizing the cache with the original
	// data source.
	Synchronization
)

// AllPatterns lists the patterns in the paper's Table II column order.
var AllPatterns = []Pattern{
	Query, SetIUD, DataSetup, StoredProcedure, SetRetrieval,
	SeqSetAccess, RandomSetAccess, TupleIUD, Synchronization,
}

// String returns the paper's name for the pattern.
func (p Pattern) String() string {
	switch p {
	case Query:
		return "Query"
	case SetIUD:
		return "Set IUD"
	case DataSetup:
		return "Data Setup"
	case StoredProcedure:
		return "Stored Procedure"
	case SetRetrieval:
		return "Set Retrieval"
	case SeqSetAccess:
		return "Seq. Set Access"
	case RandomSetAccess:
		return "Random Set Access"
	case TupleIUD:
		return "Tuple IUD"
	case Synchronization:
		return "Synchronization"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// Description returns the paper's definition of the pattern (Section
// II-B).
func (p Pattern) Description() string {
	switch p {
	case Query:
		return "querying external data by means of SQL queries; results are stored in the external data source or materialized in the process space"
	case SetIUD:
		return "set-oriented insert, update and delete operations on external data via SQL statements"
	case DataSetup:
		return "executing DDL statements on a relational database system for configuration and setup purposes during process execution"
	case StoredProcedure:
		return "calling stored procedures for complex processing of external data"
	case SetRetrieval:
		return "retrieving data from an external data source and materializing it in a set-oriented data structure in the process space, acting as a data cache with no connection to the original source"
	case SeqSetAccess:
		return "sequential access to the data cache in the process space"
	case RandomSetAccess:
		return "random access to the data cache in the process space"
	case TupleIUD:
		return "insert, update and delete on the data cache"
	case Synchronization:
		return "synchronization of the local data cache with the original data source"
	}
	return ""
}

// External reports whether the pattern concerns external data (Figure 2's
// upper half) rather than the process-space cache.
func (p Pattern) External() bool {
	switch p {
	case Query, SetIUD, DataSetup, StoredProcedure:
		return true
	}
	return false
}

// Support classifies how a product mechanism realizes a pattern.
type Support int

// Support levels, from the paper's discussion: a pattern may be realized
// at an abstract level by a dedicated mechanism, only partially so
// (Table II's footnotes), only through workarounds including user-specific
// code, or not at all.
const (
	Unsupported Support = iota
	WorkaroundOnly
	Partial
	Abstract
)

// String returns the level name.
func (s Support) String() string {
	switch s {
	case Unsupported:
		return "unsupported"
	case WorkaroundOnly:
		return "workaround"
	case Partial:
		return "partial"
	case Abstract:
		return "abstract"
	}
	return fmt.Sprintf("Support(%d)", int(s))
}

// Mark renders the level as a Table II cell.
func (s Support) Mark() string {
	switch s {
	case Abstract:
		return "x"
	case Partial:
		return "x*"
	case WorkaroundOnly:
		return "w"
	}
	return ""
}

// GeneralInfo holds a product's Table I rows.
type GeneralInfo struct {
	Vendor            string
	ProductName       string
	ShortName         string
	WorkflowLanguage  string
	ModelingLevel     string
	DesignTool        string
	SQLInlineSupport  []string // the mechanisms providing SQL inline support
	ExternalDataSet   string   // how activities reference external data sets
	MaterializedSet   string   // materialized set representation
	ExternalSource    string   // how external data sources are referenced
	AdditionalFeature string   // "-" if none
}

// Mechanism is a Table II row label: the product mechanism through which
// patterns are (or are not) realized at an abstract level.
type Mechanism string

// WorkaroundRow is the paper's "Only workarounds possible" row label.
const WorkaroundRow Mechanism = "Only workarounds possible"

// Cell is one Table II cell claim: mechanism × pattern with a support
// level and an optional footnote.
type Cell struct {
	Mechanism Mechanism
	Pattern   Pattern
	Support   Support
	Footnote  string // e.g. "only UPDATE"
}

// ConformanceCase is an executable proof for a pattern on a product: Run
// drives the product reproduction against a fresh environment and returns
// an error if the pattern's observable effect is not achieved.
type ConformanceCase struct {
	Pattern   Pattern
	Mechanism Mechanism
	Support   Support
	Footnote  string
	Run       func(env *Env) error
}

// InfoCase is an executable proof of a Table I claim: Run drives the
// product reproduction against a fresh environment and returns an error
// if the claim's observable effect is not achieved.
type InfoCase struct {
	Row   string // the Table I row, e.g. "Workflow Language"
	Claim string // the part of the row's text the case proves
	Run   func(env *Env) error
}

// InfoProver is a Product some of whose Table I claims run as cases.
type InfoProver interface {
	InfoCases() []InfoCase
}

// Product is one surveyed workflow product reproduction.
type Product interface {
	// Info returns the Table I column for the product.
	Info() GeneralInfo
	// Cells returns the product's Table II rows.
	Cells() []Cell
	// Conformance returns the executable cases backing those cells.
	Conformance() []ConformanceCase
}

// Products returns the three surveyed products in the paper's order.
func Products() []Product {
	return []Product{NewIBMBIS(), NewMicrosoftWF(), NewOracleSOA()}
}

// BestSupport returns the strongest support level any mechanism of the
// product claims for the pattern.
func BestSupport(p Product, pat Pattern) Support {
	best := Unsupported
	for _, c := range p.Cells() {
		if c.Pattern == pat && c.Support > best {
			best = c.Support
		}
	}
	return best
}
