// Museums: the paper's Figure 1 scenario end-to-end on an RDF graph.
//
// A user at a location in Stockholm queries for museums. The museums are
// spatial entities in a small DBpedia-style knowledge graph; each one's
// context is its spatial Object Summary (the neighbouring attribute
// entities). The example contrasts the top-k, diversified, and
// proportional k = 3 selections, reproducing the paper's discussion:
// proportionality represents the dominant history cluster with repetition
// while still covering a diverse direction, where diversification picks
// three mutually remote singletons and top-k three near-duplicates.
//
// Run with: go run ./examples/museums
package main

import (
	"fmt"
	"log"
	"slices"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/rdf"
	"repro/internal/textctx"
)

func main() {
	g := rdf.NewGraph()
	dict := textctx.NewDict()

	// Spatial entities (locations roughly mirror Figure 1(b): the
	// history museums cluster east of the query, the Nobel museum lies
	// the other way).
	type museum struct {
		label string
		x, y  float64
		attrs map[string][]string // predicate → attribute labels
	}
	museums := []museum{
		{"Swedish History Museum", 2.0, 0.3, map[string][]string{
			"type":       {"History museum", "Nordic museum", "National museum"},
			"collection": {"Archaeological", "Viking collection", "Jewellery works"},
		}},
		{"The Nordic Museum", 2.3, -0.1, map[string][]string{
			"type":       {"History museum", "Nordic museum"},
			"collection": {"Buildings", "Viking collection", "Jewellery works"},
		}},
		{"Vasa Museum", 2.1, 0.0, map[string][]string{
			"type":       {"History museum", "Maritime museum"},
			"collection": {"Viking collection", "Ship"},
		}},
		{"Medieval Museum", 1.8, 0.5, map[string][]string{
			"type":       {"History museum", "Nordic museum"},
			"collection": {"Archaeological", "Medieval works"},
		}},
		{"ABBA The Museum", 2.5, -0.6, map[string][]string{
			"type":       {"Music museum"},
			"collection": {"Stage costumes", "Gold records"},
		}},
		{"Photography Museum", 0.6, -1.4, map[string][]string{
			"type":       {"Art museum"},
			"collection": {"Photos", "Exhibitions"},
		}},
		{"Nobel Museum", -0.6, -0.2, map[string][]string{
			"type":       {"Natural science", "Literature museum", "Peace museum"},
			"collection": {"Laureates works", "Discovery", "Photos"},
		}},
	}

	attrIDs := map[string]rdf.EntityID{}
	for _, m := range museums {
		id, err := g.AddSpatialEntity(m.label, "Museum", geo.Pt(m.x, m.y))
		if err != nil {
			log.Fatal(err)
		}
		// Predicates in sorted order, so entity IDs (and with them the
		// printed contexts) do not follow map iteration order.
		preds := make([]string, 0, len(m.attrs))
		for pred := range m.attrs {
			preds = append(preds, pred)
		}
		slices.Sort(preds)
		for _, pred := range preds {
			for _, l := range m.attrs[pred] {
				aid, ok := attrIDs[l]
				if !ok {
					aid = g.AddEntity(l, "Attribute")
					attrIDs[l] = aid
				}
				if err := g.AddTriple(id, pred, aid); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	fmt.Println("knowledge graph:", g.Stats())

	// Derive each museum's context from its spatial Object Summary. The
	// query location sits between the clusters but nearer the museum
	// quarter, as in Figure 1(b).
	q := geo.Pt(1.0, 0.2)
	var places []core.Place
	for _, id := range g.SpatialEntities() {
		os, err := g.SpatialOS(id, dict, rdf.OSOptions{MaxDepth: 1})
		if err != nil {
			log.Fatal(err)
		}
		e, _ := g.Entity(id)
		// Relevance: proximity to q (all four match the "museum" keyword).
		rel := 1 - e.Loc.Dist(q)/4
		places = append(places, core.Place{ID: e.Label, Loc: e.Loc, Rel: rel, Context: os.Context})
	}

	scores, err := core.ComputeScores(q, places, core.ScoreOptions{Gamma: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	params := core.Params{K: 3, Lambda: 0.5, Gamma: 0.5}

	run := func(name string, alg func(*core.ScoreSet, core.Params) (core.Selection, error)) {
		sel, err := alg(scores, params)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s:\n", name)
		for rank, i := range sel.Indices {
			p := scores.Places[i]
			words := p.Context.Words(dict)
			if len(words) > 3 {
				words = words[:3]
			}
			fmt.Printf("  %d. %-24s rF=%.2f context: %v…\n", rank+1, p.ID, p.Rel, words)
		}
	}
	run("top-k by relevance (S_k)", core.TopK)
	run("diversified (ABP_D)", core.ABPDiv)
	run("proportional (ABP)", core.ABP)
}
