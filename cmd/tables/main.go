// Command tables regenerates the paper's Table I (general information and
// data management capabilities) and Table II (data management pattern
// support) from the live product reproductions.
//
// With -verify, every Table II cell's executable conformance case is run
// against a fresh database first; the command fails if any cell cannot be
// demonstrated by execution.
//
// Usage:
//
//	tables [-table 1|2|both] [-verify]
package main

import (
	"flag"
	"fmt"
	"os"

	"wfsql/internal/patterns"
)

func main() {
	table := flag.String("table", "both", "which table to print: 1, 2, both, or fig1")
	verify := flag.Bool("verify", false, "execute all conformance cases before printing")
	flag.Parse()

	prods := patterns.Products()

	if *verify {
		results := patterns.RunConformance(prods)
		failures := patterns.Failures(results)
		fmt.Printf("conformance: %d cases executed, %d failed\n\n", len(results), len(failures))
		if len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintf(os.Stderr, "FAIL %s %s: %v\n", f.Product, f.Label(), f.Err)
			}
			os.Exit(1)
		}
	}

	switch *table {
	case "fig1":
		fmt.Print(patterns.RenderFigure1())
	case "1":
		fmt.Print(patterns.TableI(prods))
	case "2":
		fmt.Print(patterns.TableII(prods))
	case "both":
		fmt.Print(patterns.TableI(prods))
		fmt.Println()
		fmt.Print(patterns.TableII(prods))
	default:
		fmt.Fprintf(os.Stderr, "tables: unknown -table %q (want 1, 2, or both)\n", *table)
		os.Exit(2)
	}
}
