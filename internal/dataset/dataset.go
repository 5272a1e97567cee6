// Package dataset generates the synthetic datasets and query workloads of
// the experimental study. The paper evaluates on DBpedia and Yago2; this
// reproduction substitutes generators that match the statistical shape the
// algorithms are sensitive to — number of places, contextual-set sizes,
// Zipf-distributed shared attribute vocabulary (controlling Jaccard
// overlap and msJh inverted-list lengths), and clustered spatial
// distributions (controlling grid occupancy) — as documented in DESIGN.md.
//
// A Dataset bundles the generated RDF graph, the place records with their
// object-summary contexts, and a bulk-loaded IR-tree, and can answer
// spatial keyword queries, producing the retrieved sets S that the
// proportionality framework selects from.
package dataset

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/irtree"
	"repro/internal/rdf"
	"repro/internal/textctx"
)

// Config parameterises dataset generation.
type Config struct {
	// Name labels the dataset in reports (e.g. "dbpedia-like").
	Name string
	// Places is the number of spatial entities.
	Places int
	// AttrEntities is the size of the shared attribute-entity vocabulary
	// contexts draw from.
	AttrEntities int
	// TriplesPerPlace is the number of attribute links per place (the
	// base contextual-set size).
	TriplesPerPlace int
	// ZipfS > 1 skews attribute popularity (larger = more skew).
	ZipfS float64
	// Clusters is the number of spatial clusters (city neighbourhoods).
	Clusters int
	// ClusterSigma is the Gaussian spread of places around their cluster.
	ClusterSigma float64
	// ClusterAffinity in [0, 1] is the probability that a place draws an
	// attribute from its cluster's preferred sub-vocabulary, producing
	// the spatial-contextual correlation real POI data exhibits.
	ClusterAffinity float64
	// Extent is the side length of the square world.
	Extent float64
	// Seed makes generation reproducible.
	Seed int64
}

// DBpediaLike returns a scaled-down configuration shaped like the paper's
// DBpedia workload (clustered places, moderately skewed vocabulary).
func DBpediaLike(seed int64) Config {
	return Config{
		Name: "dbpedia-like", Places: 4000, AttrEntities: 2500,
		TriplesPerPlace: 12, ZipfS: 1.3, Clusters: 25, ClusterSigma: 2.5,
		ClusterAffinity: 0.7, Extent: 100, Seed: seed,
	}
}

// Yago2Like returns a configuration shaped like Yago2: a higher fraction
// of spatial entities, flatter vocabulary, wider spread.
func Yago2Like(seed int64) Config {
	return Config{
		Name: "yago2-like", Places: 4000, AttrEntities: 4000,
		TriplesPerPlace: 10, ZipfS: 1.15, Clusters: 40, ClusterSigma: 4,
		ClusterAffinity: 0.55, Extent: 100, Seed: seed,
	}
}

func (c Config) validate() error {
	switch {
	case c.Places <= 0:
		return fmt.Errorf("dataset: Places = %d must be positive", c.Places)
	case c.AttrEntities <= 0:
		return fmt.Errorf("dataset: AttrEntities = %d must be positive", c.AttrEntities)
	case c.TriplesPerPlace <= 0:
		return fmt.Errorf("dataset: TriplesPerPlace = %d must be positive", c.TriplesPerPlace)
	case c.ZipfS <= 1:
		return fmt.Errorf("dataset: ZipfS = %g must be > 1", c.ZipfS)
	case c.Clusters <= 0:
		return fmt.Errorf("dataset: Clusters = %d must be positive", c.Clusters)
	case c.Extent <= 0:
		return fmt.Errorf("dataset: Extent = %g must be positive", c.Extent)
	case c.ClusterAffinity < 0 || c.ClusterAffinity > 1:
		return fmt.Errorf("dataset: ClusterAffinity = %g outside [0, 1]", c.ClusterAffinity)
	}
	return nil
}

// PlaceRecord is one generated place with its object-summary context.
type PlaceRecord struct {
	Entity  rdf.EntityID
	Label   string
	Loc     geo.Point
	Context textctx.Set
}

// Dataset is a generated corpus ready for querying.
type Dataset struct {
	Config Config
	Graph  *rdf.Graph
	Dict   *textctx.Dict
	Places []PlaceRecord
	Index  *irtree.Tree
}

// Generate builds a dataset from cfg: the RDF graph of places and
// attribute entities, the object-summary context of every place, and a
// bulk-loaded IR-tree over the place contexts.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := rdf.NewGraph()
	dict := textctx.NewDict()

	// Attribute entities with class labels cycling through OS-style
	// attribute kinds (cf. Figure 1: Type, Collection, Director, ...).
	classes := []string{"Type", "Collection", "Director", "Opening", "Architecture", "Era"}
	attrs := make([]rdf.EntityID, cfg.AttrEntities)
	for i := range attrs {
		class := classes[i%len(classes)]
		attrs[i] = g.AddEntity(fmt.Sprintf("%s:%d", class, i), class)
	}

	// Cluster centres and their preferred sub-vocabulary offsets.
	centers := make([]geo.Point, cfg.Clusters)
	offsets := make([]int, cfg.Clusters)
	for i := range centers {
		centers[i] = geo.Pt(rng.Float64()*cfg.Extent, rng.Float64()*cfg.Extent)
		offsets[i] = rng.Intn(cfg.AttrEntities)
	}

	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.AttrEntities-1))
	clusterSpan := cfg.AttrEntities / cfg.Clusters
	if clusterSpan < cfg.TriplesPerPlace*2 {
		clusterSpan = cfg.TriplesPerPlace * 2
	}

	places := make([]PlaceRecord, 0, cfg.Places)
	for i := 0; i < cfg.Places; i++ {
		c := rng.Intn(cfg.Clusters)
		loc := geo.Pt(
			clamp(centers[c].X+float64(rng.NormFloat64()*cfg.ClusterSigma), 0, cfg.Extent),
			clamp(centers[c].Y+float64(rng.NormFloat64()*cfg.ClusterSigma), 0, cfg.Extent),
		)
		label := fmt.Sprintf("place:%d", i)
		id, err := g.AddSpatialEntity(label, "Place", loc)
		if err != nil {
			return nil, err
		}
		for t := 0; t < cfg.TriplesPerPlace; t++ {
			var a int
			if rng.Float64() < cfg.ClusterAffinity {
				// Cluster-local attribute: Zipf within the cluster's span.
				a = (offsets[c] + int(zipf.Uint64())%clusterSpan) % cfg.AttrEntities
			} else {
				a = int(zipf.Uint64())
			}
			if err := g.AddTriple(id, "attribute", attrs[a]); err != nil {
				return nil, err
			}
		}
		places = append(places, PlaceRecord{Entity: id, Label: label, Loc: loc})
	}

	// Derive every place's context from its spatial object summary.
	objs := make([]irtree.Object, len(places))
	for i := range places {
		os, err := g.SpatialOS(places[i].Entity, dict, rdf.OSOptions{MaxDepth: 1})
		if err != nil {
			return nil, err
		}
		places[i].Context = os.Context
		objs[i] = irtree.Object{ID: int32(i), Loc: places[i].Loc, Terms: os.Context}
	}
	idx, err := irtree.BulkLoad(objs)
	if err != nil {
		return nil, err
	}
	return &Dataset{Config: cfg, Graph: g, Dict: dict, Places: places, Index: idx}, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Query is one spatial keyword query.
type Query struct {
	// Loc is the query location q.
	Loc geo.Point
	// Keywords is the interned query keyword set.
	Keywords textctx.Set
}

// GenQueries builds n queries in the style of Section 9.1: each query
// location is placed near a populated cluster (a random place), and its
// keywords are drawn from the contexts of nearby places, so that at least
// minResults places score non-trivially. It returns an error when the
// dataset has fewer than minResults places.
func (d *Dataset) GenQueries(n, minResults int, seed int64) ([]Query, error) {
	if len(d.Places) < minResults {
		return nil, fmt.Errorf("dataset: %d places cannot satisfy %d results per query",
			len(d.Places), minResults)
	}
	rng := rand.New(rand.NewSource(seed))
	queries := make([]Query, n)
	for i := range queries {
		anchor := d.Places[rng.Intn(len(d.Places))]
		loc := geo.Pt(anchor.Loc.X+rng.NormFloat64(), anchor.Loc.Y+rng.NormFloat64())
		// Keywords: a few items from the anchor's context plus one from a
		// random neighbour, mimicking a user describing the area.
		var kw []textctx.ItemID
		items := anchor.Context.Items()
		for len(kw) < 3 && len(items) > 0 {
			kw = append(kw, items[rng.Intn(len(items))])
		}
		nbr := d.Index.NearestK(loc, 5)
		if len(nbr) > 0 {
			nitems := nbr[len(nbr)-1].Obj.Terms.Items()
			if len(nitems) > 0 {
				kw = append(kw, nitems[rng.Intn(len(nitems))])
			}
		}
		queries[i] = Query{Loc: loc, Keywords: textctx.NewSet(kw...)}
	}
	return queries, nil
}

// Retrieve answers q with the K most relevant places (the paper's S): the
// IR-tree ranks by rF = ½·Jaccard(keywords, context) + ½·(1 − dist/maxDist),
// with distances normalised by the dataset extent diagonal (the "largest
// distance of the city").
func (d *Dataset) Retrieve(q Query, K int) ([]core.Place, error) {
	if K <= 0 {
		return nil, fmt.Errorf("dataset: K = %d must be positive", K)
	}
	res := d.Index.TopK(q.Loc, q.Keywords, d.retrieval(K))
	out := make([]core.Place, len(res))
	for i, r := range res {
		rec := d.Places[r.Obj.ID]
		out[i] = core.Place{
			ID:      rec.Label,
			Loc:     rec.Loc,
			Rel:     r.Score,
			Context: rec.Context,
		}
	}
	return out, nil
}

// retrieval is the scoring every retrieval of d ranks its K results by:
// rF with β = ½ and distances normalised by the extent diagonal.
func (d *Dataset) retrieval(K int) irtree.QueryOptions {
	return irtree.QueryOptions{K: K, Beta: 0.5, MaxDist: d.Config.Extent * 1.4142135623730951}
}

// Relevance returns rec's retrieval score rF against q, by the function
// the IR-trees rank with (irtree.Combine) and from the same inputs: the
// very bits Retrieve and ShardView.Retrieve report as Rel when they
// retrieve rec. It needs a positive Config.Extent; without one a tree
// normalises by its own diagonal, which no rescoring can know.
func (d *Dataset) Relevance(q Query, rec PlaceRecord) float64 {
	opt := d.retrieval(0)
	return irtree.Combine(opt.Beta, opt.MaxDist, q.Keywords.Jaccard(rec.Context), rec.Loc.Dist(q.Loc))
}

// AdjustContextSizes returns a copy of places whose contextual sets are
// enriched or constrained to exactly size items, reproducing the paper's
// |p_i| experimental knob ("we enriched (or constrained) the contextual
// sets of the places on demand"). Enrichment borrows items from the
// contexts of spatially nearest places first — keeping the overlap
// structure realistic — and falls back to fresh synthetic items.
func (d *Dataset) AdjustContextSizes(places []core.Place, size int, seed int64) []core.Place {
	rng := rand.New(rand.NewSource(seed))
	out := make([]core.Place, len(places))
	for i, p := range places {
		items := append([]textctx.ItemID(nil), p.Context.Items()...)
		if len(items) > size {
			// Constrain: keep a random subset for unbiased truncation.
			rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
			items = items[:size]
		} else if len(items) < size {
			have := make(map[textctx.ItemID]bool, size)
			for _, it := range items {
				have[it] = true
			}
			// Borrow from nearest neighbours' contexts.
			for _, nb := range d.Index.NearestK(p.Loc, 8) {
				for _, it := range nb.Obj.Terms.Items() {
					if len(items) >= size {
						break
					}
					if !have[it] {
						have[it] = true
						items = append(items, it)
					}
				}
			}
			// Fall back to fresh items unique to this place.
			for len(items) < size {
				it := d.Dict.Intern(fmt.Sprintf("pad:%d:%d", i, len(items)))
				if !have[it] {
					have[it] = true
					items = append(items, it)
				}
			}
		}
		q := p
		q.Context = textctx.NewSet(items...)
		out[i] = q
	}
	return out
}

// UniformPoints returns n points uniform in the square of the given
// radius around q — the synthetic spatial workload of Figure 8(d)/9(d).
func UniformPoints(rng *rand.Rand, q geo.Point, n int, radius float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(q.X+float64(signedUnit(rng)*radius), q.Y+float64(signedUnit(rng)*radius))
	}
	return pts
}

// signedUnit maps rng's next value uniformly onto [−1, 1). The conversions
// round each product on its own, including the one inside the inlined
// rng.Float64, so no platform fuses them into a multiply-add.
func signedUnit(rng *rand.Rand) float64 {
	return float64(float64(rng.Float64())*2) - 1
}

// GaussianPoints returns n points normally distributed around q with the
// given standard deviation per coordinate (the paper's Gaussian workloads
// with σ = 0.25 and 0.5).
func GaussianPoints(rng *rand.Rand, q geo.Point, n int, sigma float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(q.X+float64(rng.NormFloat64()*sigma), q.Y+float64(rng.NormFloat64()*sigma))
	}
	return pts
}
