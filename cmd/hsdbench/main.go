// Command hsdbench regenerates the paper's tables and figures.
//
// Usage:
//
//	hsdbench -list
//	hsdbench -exp fig7
//	hsdbench -exp all -scale 0.5 -seed 7
//
// Every experiment id but help maps to one table or figure of the paper;
// help is the simulated ablation of the runtime's help tier. -list prints
// the ids in paper order with their titles. Scale 1.0 runs paper-sized
// matrices on the simulated machines; smaller scales run proportionally
// smaller problems for quick iteration.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment id ("+strings.Join(experiments.IDs(), ", ")+") or 'all'")
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
