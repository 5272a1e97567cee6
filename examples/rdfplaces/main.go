// RDFPlaces: the full retrieval-plus-selection pipeline on a generated
// DBpedia-like knowledge graph.
//
//	generate corpus → IR-tree top-K spatial keyword retrieval → Step 1
//	(msJh + squared grid scores) → Step 2 (IAdU and ABP) → report.
//
// This is the end-to-end shape a downstream application would use: the
// retrieved set S comes out of the IR-tree ranked by rF, and the
// proportional selection runs on top, exactly as in Section 5's two-step
// framework.
//
// Run with: go run ./examples/rdfplaces
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

func main() {
	start := time.Now()
	cfg := dataset.DBpediaLike(11)
	cfg.Places = 3000
	d, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %q in %v: %s\n", cfg.Name, time.Since(start).Round(time.Millisecond), d.Graph.Stats())

	// A query: location in the middle of the world, keywords borrowed
	// from a place's context so the textual side has bite.
	queries, err := d.GenQueries(1, 1000, 5)
	if err != nil {
		log.Fatal(err)
	}
	q := queries[0]
	fmt.Printf("query at (%.1f, %.1f) with %d keywords\n", q.Loc.X, q.Loc.Y, q.Keywords.Len())

	const K = 200
	retrieved, err := d.Retrieve(q, K)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retrieved S: %d places, rF range [%.3f, %.3f]\n",
		len(retrieved), retrieved[len(retrieved)-1].Rel, retrieved[0].Rel)

	// Step 1 with the optimised engines: msJh's exact Jaccard for
	// contexts, squared grid (|G| ≈ K) for locations.
	t0 := time.Now()
	scores, err := core.ComputeScores(q.Loc, retrieved, core.ScoreOptions{
		Gamma:   0.5,
		Spatial: core.SpatialSquaredGrid,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 1 (scores) took %v\n", time.Since(t0).Round(time.Microsecond))

	params := core.Params{K: 10, Lambda: 0.5, Gamma: 0.5}
	for _, alg := range []struct {
		name string
		f    func(*core.ScoreSet, core.Params) (core.Selection, error)
	}{{"IAdU", core.IAdU}, {"ABP", core.ABP}} {
		t1 := time.Now()
		sel, err := alg.f(scores, params)
		if err != nil {
			log.Fatal(err)
		}
		b := scores.Evaluate(sel.Indices, params.Lambda)
		fmt.Printf("\n%s took %v — HPF(R) = %.1f (rF %.1f | pC %.1f | pS %.1f)\n",
			alg.name, time.Since(t1).Round(time.Microsecond), b.Total, b.Rel, b.PC, b.PS)
		for rank, i := range sel.Indices {
			p := scores.Places[i]
			fmt.Printf("  %2d. %-12s rF=%.3f dist=%.2f |C|=%d\n",
				rank+1, p.ID, p.Rel, p.Loc.Dist(q.Loc), p.Context.Len())
		}
	}
}
