// Command propsearch answers spatial keyword queries with proportional
// selection: it retrieves the K most relevant places around a query
// location (IR-tree), computes the proportionality scores (msJh + squared
// grid) and selects k places with the chosen algorithm.
//
// Usage:
//
//	propsearch -data db.gob -loc 42.5,17.3 -keywords "Type:10,Collection:4" \
//	           -K 100 -k 10 -lambda 0.5 -gamma 0.5 -algo abp
//
// Without -data, a small demo dataset is generated on the fly.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/textctx"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "propsearch:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("propsearch", flag.ContinueOnError)
	data := fs.String("data", "", "dataset file from datagen (empty: generate a demo corpus)")
	locStr := fs.String("loc", "", "query location as x,y (empty: centre of the world)")
	keywords := fs.String("keywords", "", "comma-separated query keywords")
	bigK := fs.Int("K", 100, "size of the retrieved set S")
	k := fs.Int("k", 10, "size of the selected set R")
	lambda := fs.Float64("lambda", 0.5, "relevance vs proportionality weight λ")
	gamma := fs.Float64("gamma", 0.5, "contextual vs spatial weight γ")
	algo := fs.String("algo", "abp", fmt.Sprintf("selection algorithm, one of %v", core.Algorithms()))
	if err := fs.Parse(args); err != nil {
		return err
	}

	d, err := loadOrGenerate(*data)
	if err != nil {
		return err
	}

	loc := geo.Pt(d.Config.Extent/2, d.Config.Extent/2)
	if *locStr != "" {
		parts := strings.SplitN(*locStr, ",", 2)
		if len(parts) != 2 {
			return fmt.Errorf("bad -loc %q (want x,y)", *locStr)
		}
		x, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		y, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad -loc %q", *locStr)
		}
		loc = geo.Pt(x, y)
	}

	var kwIDs []textctx.ItemID
	var unknown []string
	for _, w := range strings.Split(*keywords, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		if id, ok := d.Dict.Lookup(w); ok {
			kwIDs = append(kwIDs, id)
		} else {
			unknown = append(unknown, w)
		}
	}
	if len(unknown) > 0 {
		fmt.Fprintf(stdout, "warning: keywords not in corpus vocabulary: %s\n", strings.Join(unknown, ", "))
	}
	query := dataset.Query{Loc: loc, Keywords: textctx.NewSet(kwIDs...)}

	places, err := d.Retrieve(query, *bigK)
	if err != nil {
		return err
	}
	if len(places) <= *k {
		return fmt.Errorf("retrieved only %d places; need more than k=%d", len(places), *k)
	}

	ss, err := core.ComputeScores(loc, places, core.ScoreOptions{
		Gamma:   *gamma,
		Spatial: core.SpatialSquaredGrid,
	})
	if err != nil {
		return err
	}
	params := core.Params{K: *k, Lambda: *lambda, Gamma: *gamma}

	sel, err := core.Select(core.Algorithm(*algo), ss, params)
	if err != nil {
		return err
	}

	b := ss.Evaluate(sel.Indices, *lambda)
	fmt.Fprintf(stdout, "query q=%v keywords=%q K=%d k=%d λ=%.2f γ=%.2f algo=%s\n",
		loc, *keywords, *bigK, *k, *lambda, *gamma, *algo)
	fmt.Fprintf(stdout, "HPF(R) = %.2f  (rF part %.2f, pC part %.2f, pS part %.2f)\n\n",
		b.Total, b.Rel, b.PC, b.PS)
	fmt.Fprintf(stdout, "%-4s %-14s %-18s %-6s %s\n", "rank", "place", "location", "rF", "context (first items)")
	for rank, idx := range sel.Indices {
		p := ss.Places[idx]
		ctx := p.Context.Words(d.Dict)
		if len(ctx) > 4 {
			ctx = ctx[:4]
		}
		fmt.Fprintf(stdout, "%-4d %-14s %-18s %-6.3f %s\n",
			rank+1, p.ID, fmt.Sprintf("(%.2f, %.2f)", p.Loc.X, p.Loc.Y), p.Rel,
			strings.Join(ctx, ", "))
	}
	return nil
}

func loadOrGenerate(path string) (*dataset.Dataset, error) {
	if path == "" {
		cfg := dataset.DBpediaLike(7)
		cfg.Places = 1500
		return dataset.Generate(cfg)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.Load(f)
}
