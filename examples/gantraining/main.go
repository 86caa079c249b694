// GAN training root-causing (Section 5.3): each real configuration takes
// ~10 hours to train, so executions are precious. BugDoc debugs the
// simulated SAGAN/CIFAR-10 pipeline — Fail means the FID threshold flagged
// mode collapse — comparing the Stacked Shortcut (cheap, one cause) with
// Debugging Decision Trees (dearer, all causes, inequalities allowed).
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/bugdoc"
	"repro/internal/gansim"
)

func main() {
	ctx := context.Background()
	gan, err := gansim.New()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Pipeline:", gan.Space)
	fmt.Printf("Evaluation: FID <= %.0f (mode collapse threshold)\n\n", gansim.Threshold)

	// Pass 1: Stacked Shortcut — at most 2|P| − 1 executions per good.
	s1, err := bugdoc.NewSession(gan.Space, gan.Oracle(), bugdoc.WithSeed(11))
	if err != nil {
		log.Fatal(err)
	}
	if err := s1.Seed(ctx); err != nil {
		log.Fatal(err)
	}
	quick, err := s1.FindOne(ctx, bugdoc.StackedShortcut)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Stacked Shortcut (%d executions):\n%s\n", s1.Spent(), bugdoc.Explain(quick))

	// Pass 2: Debugging Decision Trees with the provenance of a past
	// training campaign (200 prior configurations) — finds both collapse
	// regimes, including the inequality conditions.
	history := make([]bugdoc.Record, 0, 200)
	seen := make(map[string]bool)
	r := rand.New(rand.NewSource(42))
	for len(history) < 200 {
		in := gan.Space.RandomInstance(r)
		if seen[in.Key()] {
			continue
		}
		seen[in.Key()] = true
		out, err := gan.Oracle().Run(ctx, in)
		if err != nil {
			log.Fatal(err)
		}
		history = append(history, bugdoc.Record{Instance: in, Outcome: out, Source: "campaign"})
	}
	s2, err := bugdoc.NewSession(gan.Space, gan.Oracle(),
		bugdoc.WithSeed(11), bugdoc.WithWorkers(8), bugdoc.WithHistory(history))
	if err != nil {
		log.Fatal(err)
	}
	all, err := s2.FindAll(ctx, bugdoc.DebuggingDecisionTrees)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Debugging Decision Trees (%d executions):\n%s\n", s2.Spent(), bugdoc.Explain(all))
	fmt.Println("Planted ground truth:", gan.Truth)
}
