package patterns

import (
	"strings"
	"testing"
)

// paperTableII is the ground truth transcribed from the paper's Table II:
// product -> mechanism -> pattern -> footnote marker ("" = plain x).
var paperTableII = map[string]map[Mechanism]map[Pattern]string{
	"IBM BIS": {
		mechSQL:         {Query: "", SetIUD: "", DataSetup: "", StoredProcedure: ""},
		mechRetrieveSet: {SetRetrieval: ""},
		mechAssignBPEL:  {RandomSetAccess: "", TupleIUD: "only UPDATE"},
		WorkaroundRow:   {SeqSetAccess: "", TupleIUD: "only DELETE and INSERT", Synchronization: ""},
	},
	"Microsoft WF": {
		mechSQLDatabase: {Query: "", SetIUD: "", DataSetup: "", StoredProcedure: "", SetRetrieval: ""},
		WorkaroundRow:   {SeqSetAccess: "", RandomSetAccess: "", TupleIUD: "", Synchronization: ""},
	},
	"Oracle SOA Suite": {
		mechAssignExt:  {Query: "", SetIUD: "", DataSetup: "", StoredProcedure: "", SetRetrieval: "", TupleIUD: ""},
		mechAssignBPEL: {RandomSetAccess: "", TupleIUD: "only UPDATE"},
		WorkaroundRow:  {SeqSetAccess: "", Synchronization: ""},
	},
}

// TestTableII verifies cell-for-cell equality between the adapters' claims
// and the paper's printed Table II.
func TestTableII(t *testing.T) {
	for _, p := range Products() {
		name := p.Info().ShortName
		want, ok := paperTableII[name]
		if !ok {
			t.Fatalf("no ground truth for product %s", name)
		}
		got := map[Mechanism]map[Pattern]string{}
		for _, c := range p.Cells() {
			if got[c.Mechanism] == nil {
				got[c.Mechanism] = map[Pattern]string{}
			}
			if _, dup := got[c.Mechanism][c.Pattern]; dup {
				t.Errorf("%s: duplicate cell %s/%s", name, c.Mechanism, c.Pattern)
			}
			got[c.Mechanism][c.Pattern] = c.Footnote
		}
		for mech, pats := range want {
			for pat, fn := range pats {
				gotFn, ok := got[mech][pat]
				if !ok {
					t.Errorf("%s: missing cell %s/%s", name, mech, pat)
					continue
				}
				if gotFn != fn {
					t.Errorf("%s: cell %s/%s footnote = %q, want %q", name, mech, pat, gotFn, fn)
				}
			}
		}
		for mech, pats := range got {
			for pat := range pats {
				if _, ok := want[mech][pat]; !ok {
					t.Errorf("%s: extra cell %s/%s not in the paper", name, mech, pat)
				}
			}
		}
	}
}

// TestConformanceExecutes proves every Table II claim by execution: each
// cell's conformance case must pass against a live environment.
func TestConformanceExecutes(t *testing.T) {
	for _, p := range Products() {
		name := p.Info().ShortName
		cases := p.Conformance()
		claimed := map[string]bool{}
		for _, c := range p.Cells() {
			claimed[string(c.Mechanism)+"/"+c.Pattern.String()] = true
		}
		for _, c := range cases {
			key := string(c.Mechanism) + "/" + c.Pattern.String()
			if !claimed[key] {
				t.Errorf("%s: conformance case %s has no Table II cell", name, key)
			}
			t.Run(name+"/"+key, func(t *testing.T) {
				env := NewEnv()
				if err := c.Run(env); err != nil {
					t.Fatalf("conformance failed: %v", err)
				}
			})
		}
		if len(cases) != len(p.Cells()) {
			t.Errorf("%s: %d conformance cases for %d cells", name, len(cases), len(p.Cells()))
		}
	}
}

// TestInfoCasesExecute runs the Table I claims WF proves by execution:
// Figure 6 from markup, and after a BPEL export and import.
func TestInfoCasesExecute(t *testing.T) {
	cases := NewMicrosoftWF().InfoCases()
	if len(cases) != 2 {
		t.Fatalf("%d WF Table I cases, want 2", len(cases))
	}
	info := NewMicrosoftWF().Info()
	for _, c := range cases {
		if text := map[string]string{"Modeling Level": info.ModelingLevel, "Workflow Language": info.WorkflowLanguage}[c.Row]; !strings.Contains(text, c.Claim) {
			t.Errorf("Table I %s reads %q, which does not claim %q", c.Row, text, c.Claim)
		}
		t.Run(c.Claim, func(t *testing.T) {
			if err := c.Run(NewEnv()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEveryPatternCoveredByEveryProduct checks the paper's expectation
// that all nine patterns are realizable (abstractly or via workarounds) in
// every product.
func TestEveryPatternCoveredByEveryProduct(t *testing.T) {
	for _, p := range Products() {
		for _, pat := range AllPatterns {
			if BestSupport(p, pat) == Unsupported {
				t.Errorf("%s: pattern %s has no realization", p.Info().ShortName, pat)
			}
		}
	}
}

// TestExternalPatternsAreAbstractEverywhere checks the paper's conclusion
// that all patterns concerning external data are realizable at an abstract
// level in all three products.
func TestExternalPatternsAreAbstractEverywhere(t *testing.T) {
	for _, p := range Products() {
		for _, pat := range AllPatterns {
			if !pat.External() {
				continue
			}
			if BestSupport(p, pat) != Abstract {
				t.Errorf("%s: external pattern %s not abstract", p.Info().ShortName, pat)
			}
		}
	}
}

// TestSequentialAccessAndSyncNeedWorkaroundsEverywhere checks the
// discussion's observation that no vendor covers Sequential Set Access or
// Synchronization without workarounds.
func TestSequentialAccessAndSyncNeedWorkaroundsEverywhere(t *testing.T) {
	for _, p := range Products() {
		for _, pat := range []Pattern{SeqSetAccess, Synchronization} {
			if s := BestSupport(p, pat); s != WorkaroundOnly {
				t.Errorf("%s: %s support = %s, want workaround-only", p.Info().ShortName, pat, s)
			}
		}
	}
}

// TestTableIContent verifies the distinguishing Table I claims.
func TestTableIContent(t *testing.T) {
	prods := Products()
	ibm, ms, ora := prods[0].Info(), prods[1].Info(), prods[2].Info()

	if ibm.WorkflowLanguage != "BPEL" || ora.WorkflowLanguage != "BPEL" {
		t.Error("IBM and Oracle must be BPEL-based")
	}
	if !strings.Contains(ms.WorkflowLanguage, "XOML") {
		t.Error("WF language must include XOML")
	}
	if ibm.ExternalSource != "dynamic, static" {
		t.Errorf("IBM external source: %s", ibm.ExternalSource)
	}
	if ms.ExternalSource != "static" || ora.ExternalSource != "static" {
		t.Error("WF and Oracle must have static source binding")
	}
	if !strings.Contains(ibm.ExternalDataSet, "Set Reference") {
		t.Error("IBM must reference data sets via set references")
	}
	if ms.MaterializedSet != "DataSet Object" {
		t.Errorf("WF materialized set: %s", ms.MaterializedSet)
	}
	if ibm.MaterializedSet != "proprietary XML RowSet" || ora.MaterializedSet != "proprietary XML RowSet" {
		t.Error("IBM and Oracle must use XML RowSets")
	}
	if ibm.AdditionalFeature == "-" {
		t.Error("IBM has lifecycle management as additional feature")
	}
	if ms.AdditionalFeature != "-" || ora.AdditionalFeature != "-" {
		t.Error("WF and Oracle have no additional features in Table I")
	}
	if len(ibm.SQLInlineSupport) != 3 {
		t.Errorf("IBM SQL inline mechanisms: %v", ibm.SQLInlineSupport)
	}
}

// TestTableRendering sanity-checks the generated table text.
func TestTableRendering(t *testing.T) {
	prods := Products()
	t1 := TableI(prods)
	for _, want := range []string{
		"Workflow Language", "WebSphere Integration Developer",
		"DataSet Object", "XPath Extension Functions",
		"Lifecycle Management for DB Entities", "dynamic, static",
	} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table I missing %q:\n%s", want, t1)
		}
	}
	t2 := TableII(prods)
	for _, want := range []string{
		"Query", "Synchronization", "Only workarounds possible",
		"SQL Database", "Assign (XPath Ext. Functions)", "Retrieve Set",
		"only UPDATE", "only DELETE and INSERT",
	} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table II missing %q:\n%s", want, t2)
		}
	}
	// Footnote markers are stable: x1 = only UPDATE, x2 = only DELETE and INSERT.
	if !strings.Contains(t2, "x1") || !strings.Contains(t2, "x2") {
		t.Errorf("Table II footnote markers missing:\n%s", t2)
	}
}

// TestVerifiedTableII runs the all-in-one generator used by cmd/tables.
func TestVerifiedTableII(t *testing.T) {
	text, failures := VerifiedTableII(Products())
	if len(failures) != 0 {
		for _, f := range failures {
			t.Errorf("%s %s: %v", f.Product, f.Label(), f.Err)
		}
	}
	if !strings.Contains(text, "TABLE II") {
		t.Error("table text missing header")
	}
}

// TestFigure1Taxonomy pins the Figure 1 content: all four products offer
// the adapter technology, only the three compared ones offer SQL inline
// support, and BEA appears adapter-only.
func TestFigure1Taxonomy(t *testing.T) {
	entries := Figure1()
	if len(entries) != 4 {
		t.Fatalf("products in Figure 1: %d", len(entries))
	}
	var beaFound bool
	for _, e := range entries {
		if _, ok := e.Styles[AdapterTechnology]; !ok {
			t.Errorf("%s lacks adapter technology", e.Vendor)
		}
		_, inline := e.Styles[SQLInlineSupport]
		if e.Vendor == "BEA" {
			beaFound = true
			if inline {
				t.Error("BEA must not have SQL inline support")
			}
		} else if !inline {
			t.Errorf("%s must have SQL inline support", e.Vendor)
		}
	}
	if !beaFound {
		t.Fatal("BEA missing from Figure 1")
	}
	text := RenderFigure1()
	for _, want := range []string{"FIGURE 1", "AquaLogic", "XPath Extension Functions", "customized SQL Activity"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered figure missing %q", want)
		}
	}
}

func TestPatternDescriptions(t *testing.T) {
	for _, p := range AllPatterns {
		if p.Description() == "" {
			t.Errorf("pattern %s has no description", p)
		}
	}
	if Pattern(99).Description() != "" || Pattern(99).String() == "" {
		t.Error("unknown pattern handling")
	}
	if !strings.Contains(SetRetrieval.Description(), "no connection") {
		t.Error("SetRetrieval description must state disconnection")
	}
}

func TestSupportStringsAndMarks(t *testing.T) {
	if Abstract.String() != "abstract" || WorkaroundOnly.String() != "workaround" ||
		Partial.String() != "partial" || Unsupported.String() != "unsupported" {
		t.Error("support names")
	}
	if Abstract.Mark() != "x" || Partial.Mark() != "x*" || WorkaroundOnly.Mark() != "w" || Unsupported.Mark() != "" {
		t.Error("support marks")
	}
	if Support(99).String() == "" {
		t.Error("unknown support name")
	}
}
