// Data-element drill-down (the paper's future-work §6, implemented): BugDoc
// first identifies *which dataset* makes the pipeline fail; adaptive group
// testing then isolates the corrupt rows inside that dataset in O(d log n)
// pipeline runs instead of one run per row; finally, observed
// (non-manipulable) variables recorded during the runs enrich the
// explanation for the human debugger.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/bugdoc"
	"repro/internal/core"
	"repro/internal/grouptest"
	"repro/internal/pipeline"
)

const datasetRows = 1000

// corruptRows are the rows with the wrong temporal resolution (the
// enterprise-analytics example from the paper's introduction: a feed
// switched from monthly to weekly).
var corruptRows = map[int]bool{104: true, 105: true, 617: true}

func main() {
	ctx := context.Background()

	// Step 1: pipeline-level debugging. Three candidate feeds; the
	// pipeline fails whenever feed "sales_eu" is used.
	space := bugdoc.MustSpace(
		bugdoc.Parameter{Name: "feed", Kind: bugdoc.Categorical, Domain: []bugdoc.Value{
			bugdoc.Cat("sales_us"), bugdoc.Cat("sales_eu"), bugdoc.Cat("sales_apac"),
		}},
		bugdoc.Parameter{Name: "model", Kind: bugdoc.Categorical, Domain: []bugdoc.Value{
			bugdoc.Cat("arima"), bugdoc.Cat("prophet"),
		}},
	)
	oracle := bugdoc.OracleFunc(func(_ context.Context, in bugdoc.Instance) (bugdoc.Outcome, error) {
		if feed, _ := in.ByName("feed"); feed == bugdoc.Cat("sales_eu") {
			return bugdoc.Fail, nil // the EU feed contains the corrupt rows
		}
		return bugdoc.Succeed, nil
	})
	session, err := bugdoc.NewSession(space, oracle, bugdoc.WithSeed(2))
	if err != nil {
		log.Fatal(err)
	}
	if err := session.Seed(ctx); err != nil {
		log.Fatal(err)
	}
	causes, err := session.FindOne(ctx, bugdoc.Shortcut)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Step 1 — BugDoc root cause:")
	fmt.Print(bugdoc.Explain(causes))

	// Step 2: the root cause names a dataset, so group-test its rows: each
	// test runs the pipeline on the feed's rows [lo, hi) and reports
	// whether it fails. Shortcut splits its parameters with the same
	// search.
	corrupt, runs, err := grouptest.SplitDepthFirst(ctx, datasetRows, func(lo, hi int) (bool, error) {
		for r := lo; r < hi; r++ {
			if corruptRows[r] {
				return true, nil
			}
		}
		return false, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nStep 2 — group testing over %d rows: corrupt rows %v found in %d pipeline runs\n",
		datasetRows, corrupt, runs)
	fmt.Printf("         (naive row-at-a-time debugging would need %d runs)\n", datasetRows)

	// Step 3: enrich the explanation with observed variables logged during
	// the step-1 runs (here: the feed's reported temporal resolution).
	var observations []core.Observation
	for _, rec := range session.Store().Snapshot().Records() {
		feed, _ := rec.Instance.ByName("feed")
		resolution := "monthly"
		if feed == pipeline.Cat("sales_eu") {
			resolution = "weekly" // the upstream change that broke the forecasts
		}
		observations = append(observations, core.Observation{
			Instance: rec.Instance,
			Outcome:  rec.Outcome,
			Values: map[string]pipeline.Value{
				"feed_resolution": pipeline.Cat(resolution),
				"rows_ingested":   pipeline.Ord(float64(datasetRows)),
			},
		})
	}
	enriched, err := core.Enrich(causes[0], observations, 0.9, 0.25)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nStep 3 — observed-variable enrichment of the root cause:")
	for _, p := range enriched {
		fmt.Printf("  %v\n", p)
	}
}
