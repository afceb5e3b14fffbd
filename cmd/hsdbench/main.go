// Command hsdbench regenerates the paper's tables and figures.
//
// Usage:
//
//	hsdbench -list
//	hsdbench -exp fig7
//	hsdbench -exp all -scale 0.5 -seed 7
//
// Every experiment id maps to one table or figure of the paper (see
// DESIGN.md's experiment index). Scale 1.0 runs paper-sized matrices on
// the simulated machines; smaller scales run proportionally smaller
// problems for quick iteration.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment id (fig1..fig17, table1, thm1, exascale, ablation, help) or 'all'")
	scale := flag.Float64("scale", 1.0, "matrix size multiplier relative to the paper")
	seed := flag.Int64("seed", 42, "noise seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list || *exp == "" {
		titles := experiments.Titles()
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-9s %s\n", id, titles[id])
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		tbl, err := experiments.Run(id, *scale, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hsdbench: %v\n", err)
			os.Exit(1)
		}
		tbl.ID = id
		fmt.Println(tbl.String())
	}
}
