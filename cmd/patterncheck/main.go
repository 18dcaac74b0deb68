// Command patterncheck runs the full pattern-conformance suite: every
// (product, mechanism, pattern) claim of the paper's Table II, and each
// Table I claim a product runs (patterns.InfoProver), is executed against
// a fresh database, and the verdict matrix is printed.
package main

import (
	"fmt"
	"os"

	"wfsql/internal/patterns"
)

func main() {
	prods := patterns.Products()
	results := patterns.RunConformance(prods)

	fmt.Println("PATTERN CONFORMANCE — every Table II cell executed against a live database")
	fmt.Println()
	current := ""
	failed := 0
	for _, r := range results {
		if r.Product != current {
			current = r.Product
			fmt.Printf("%s\n", current)
		}
		verdict := "PASS"
		if r.Err != nil {
			verdict = "FAIL: " + r.Err.Error()
			failed++
		}
		if r.Claim != "" {
			fmt.Printf("  Table I %-41s %s\n", r.Claim, verdict)
			continue
		}
		note := ""
		if r.Footnote != "" {
			note = " (" + r.Footnote + ")"
		}
		fmt.Printf("  %-30s %-18s [%s]%s %s\n", r.Mechanism, r.Pattern, r.Support, note, verdict)
	}
	fmt.Printf("\n%d cases, %d failed\n", len(results), failed)
	if failed > 0 {
		os.Exit(1)
	}
}
