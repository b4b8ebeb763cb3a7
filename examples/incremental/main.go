// Incremental maintenance: the paper's closing research direction —
// keeping discovered dependencies current while the database grows,
// without re-reading the data.
//
// The example streams tuples into an IncrementalMiner and watches the
// dependency set tighten: early, with little data, many accidental FDs
// hold; as evidence accumulates, only the real rules survive. Each
// re-derivation costs time proportional to the agree-set family, not to
// the number of tuples inserted so far.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	names := []string{"city", "zip", "state"}
	m, err := depminer.NewIncrementalMiner(names)
	if err != nil {
		log.Fatal(err)
	}

	stream := [][]string{
		{"Springfield", "62701", "IL"},
		{"Springfield", "62702", "IL"},
		{"Portland", "97201", "OR"},
		{"Portland", "04101", "ME"}, // city no longer determines state!
		{"Salem", "97301", "OR"},
		{"Salem", "03079", "NH"},
		{"Columbus", "43004", "OH"},
		{"Columbus", "31901", "GA"},
	}

	ctx := context.Background()
	for i, row := range stream {
		if err := m.Insert(row); err != nil {
			log.Fatal(err)
		}
		cover, err := m.Cover(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("after %d tuples (%v): %d minimal FDs\n", i+1, row, len(cover))
		for _, f := range cover {
			fmt.Println("    " + f.Names(names))
		}
	}

	fmt.Println("\nzip → city and zip → state survive the whole stream; the tempting")
	fmt.Println("city → state is refuted the moment the second Portland arrives —")
	fmt.Println("without ever re-scanning earlier tuples.")

	// The maintained state still supports the full Dep-Miner outputs.
	maxSets, err := m.MaxSets(ctx)
	if err != nil {
		log.Fatal(err)
	}
	snap := m.Snapshot()
	arm, err := depminer.RealWorldArmstrong(snap, maxSets)
	if err != nil {
		fmt.Printf("\n(real-world Armstrong relation unavailable: %v)\n", err)
		return
	}
	fmt.Printf("\nreal-world Armstrong relation of the stream so far (%d of %d tuples):\n\n",
		arm.Rows(), m.Rows())
	fmt.Println(arm)
}
