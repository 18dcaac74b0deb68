// Orderprocessing runs the paper's running example — aggregate approved
// orders per item type, order each from a supplier, record the
// confirmations — on all three product stacks (Figures 4, 6, and 8) over
// the same workload, and verifies that they produce identical external
// effects.
package main

import (
	"fmt"
	"log"
	"strings"

	"wfsql"
)

func main() {
	w := wfsql.Workload{Orders: 30, Items: 5, ApprovalPercent: 60, Seed: 7}

	var reference string
	for _, s := range wfsql.Stacks() {
		env := wfsql.NewEnvironment(w)
		if err := env.Run(s, wfsql.ResilienceConfig{}); err != nil {
			log.Fatalf("%s: %v", s.Name, err)
		}
		res := env.DB.MustExec(
			"SELECT ItemID, Quantity, Confirmation FROM OrderConfirmations ORDER BY ItemID")
		fmt.Printf("=== %s (%s) ===\n%s\n", s.Name, s.Figure, res)

		var rows []string
		for _, row := range res.Rows {
			rows = append(rows, fmt.Sprintf("%s|%s|%s", row[0], row[1], row[2]))
		}
		effects := strings.Join(rows, "\n")
		if reference == "" {
			reference = effects
		} else if effects != reference {
			log.Fatalf("%s produced different effects than the first stack", s.Name)
		}
	}
	fmt.Println("all three stacks produced identical order confirmations ✔")
}
