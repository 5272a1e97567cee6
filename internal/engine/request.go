package engine

import (
	"errors"
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/textctx"
)

// ErrBadRequest marks request-validation failures (malformed or
// out-of-range parameters, unknown algorithm or spatial method names,
// too-small retrieved sets). Servers map errors wrapping it to HTTP 400.
var ErrBadRequest = errors.New("engine: bad request")

// QueryRequest is the one canonical query schema, shared by GET
// /v1/search (via RequestFromValues) and every element of POST /v1/batch
// (via JSON decoding over a NewRequest-seeded value, so absent fields
// keep the corpus defaults). Normalize validates it and derives the
// score-set cache key.
type QueryRequest struct {
	// X, Y is the query location q; the corpus default is the extent
	// centre.
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// Keywords are resolved against the corpus dictionary during
	// Normalize; unknown words match nothing and are dropped from the
	// retrieval set (DroppedKeywords lists them, and responses surface
	// them as diagnostics.keywords_dropped so an all-unknown query is
	// distinguishable from a keywordless one).
	Keywords []string `json:"keywords,omitempty"`
	// K is the retrieval size |S| (default 100); SmallK the result size
	// k < K (default 10).
	K      int `json:"K"`
	SmallK int `json:"k"`
	// Lambda trades relevance against proportionality, Gamma contextual
	// against spatial proportionality; both default to 0.5.
	Lambda float64 `json:"lambda"`
	Gamma  float64 `json:"gamma"`
	// Algo names the selection algorithm (default "abp").
	Algo string `json:"algo"`
	// Spatial is "squared", "radial" or "exact" (default "squared").
	Spatial string `json:"spatial"`

	// Filled by NewRequest / Normalize.
	snap        corpusSnapshot
	maxK        int
	kwSet       textctx.Set
	droppedKw   []string
	spatial     core.SpatialMethod
	clampedFrom int
	normalized  bool
}

// NewRequest returns a request seeded with the corpus defaults (location
// at the extent centre, K=100, k=10, λ=γ=0.5, abp over the squared grid)
// and pinned to the corpus epoch published at this moment: the request
// resolves keywords, retrieves and renders against that snapshot for its
// whole lifetime, regardless of mutations racing it.
func (e *Engine) NewRequest() *QueryRequest {
	snap := *e.snap.Load()
	center := snap.d.Config.Extent / 2
	return &QueryRequest{
		X: center, Y: center,
		K: 100, SmallK: 10,
		Lambda: 0.5, Gamma: 0.5,
		Algo: string(core.AlgABP), Spatial: "squared",
		snap: snap, maxK: e.opt.MaxK,
	}
}

// corpus returns the dataset the request is pinned to.
func (r *QueryRequest) corpus() *dataset.Dataset { return r.snap.d }

// Epoch returns the corpus epoch the request is pinned to (0 for requests
// not built via NewRequest, which Normalize rejects).
func (r *QueryRequest) Epoch() uint64 { return r.snap.epoch }

// RequestFromValues builds a request from URL query parameters, replacing
// the scattered per-parameter parsing servers used to carry. Parameters
// absent from q keep the NewRequest defaults; malformed or non-finite
// numbers fail with an error wrapping ErrBadRequest.
func (e *Engine) RequestFromValues(q url.Values) (*QueryRequest, error) {
	r := e.NewRequest()
	getF := func(name string, dst *float64) error {
		v := q.Get(name)
		if v == "" {
			return nil
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("%w: parameter %q: %v", ErrBadRequest, name, err)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%w: parameter %q = %v must be finite", ErrBadRequest, name, f)
		}
		*dst = f
		return nil
	}
	getI := func(name string, dst *int) error {
		v := q.Get(name)
		if v == "" {
			return nil
		}
		i, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("%w: parameter %q: %v", ErrBadRequest, name, err)
		}
		*dst = i
		return nil
	}
	if err := getF("x", &r.X); err != nil {
		return nil, err
	}
	if err := getF("y", &r.Y); err != nil {
		return nil, err
	}
	if err := getI("K", &r.K); err != nil {
		return nil, err
	}
	if err := getI("k", &r.SmallK); err != nil {
		return nil, err
	}
	if err := getF("lambda", &r.Lambda); err != nil {
		return nil, err
	}
	if err := getF("gamma", &r.Gamma); err != nil {
		return nil, err
	}
	if v := q.Get("algo"); v != "" {
		r.Algo = v
	}
	if v := q.Get("spatial"); v != "" {
		r.Spatial = v
	}
	if v := q.Get("keywords"); v != "" {
		r.Keywords = strings.Split(v, ",")
	}
	return r, nil
}

// CacheKey is the canonical score-set cache key: the exact bits of the
// Step-1 parameters (location, K after clamping, γ, spatial method) plus
// the interned keyword-set fingerprint. Step-2 parameters (algorithm, k,
// λ) are deliberately absent — they do not affect the score set (see
// DESIGN.md).
type CacheKey struct{ s string }

// String returns the canonical encoding.
func (k CacheKey) String() string { return k.s }

// Normalize validates every field, applies the engine's K ceiling,
// resolves the keywords against the corpus dictionary, and returns the
// canonicalised cache key. All failures wrap ErrBadRequest, including a
// request not built via NewRequest, which has no corpus to resolve its
// keywords against. Normalize is idempotent and must be called (directly
// or via Query) before the SpatialMethod/ClampedFrom/KeywordSet accessors
// mean anything.
func (r *QueryRequest) Normalize() (CacheKey, error) {
	bad := func(format string, args ...any) (CacheKey, error) {
		return CacheKey{}, fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
	}
	if r.snap.d == nil {
		return bad("request is not pinned to a corpus epoch; build it with Engine.NewRequest")
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"x", r.X}, {"y", r.Y}, {"lambda", r.Lambda}, {"gamma", r.Gamma}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return bad("parameter %q = %v must be finite", f.name, f.v)
		}
	}
	if r.K <= 0 {
		return bad("K = %d must be positive", r.K)
	}
	if r.SmallK <= 0 {
		return bad("k = %d must be positive", r.SmallK)
	}
	if r.SmallK >= r.K {
		return bad("k = %d must be smaller than K = %d", r.SmallK, r.K)
	}
	if r.Lambda < 0 || r.Lambda > 1 {
		return bad("lambda = %v outside [0, 1]", r.Lambda)
	}
	if r.Gamma < 0 || r.Gamma > 1 {
		return bad("gamma = %v outside [0, 1]", r.Gamma)
	}
	if r.Algo == "" {
		r.Algo = string(core.AlgABP)
	}
	if !core.Registered(core.Algorithm(r.Algo)) {
		return bad("unknown algorithm %q (have %v)", r.Algo, core.Algorithms())
	}
	if r.Spatial == "" {
		r.Spatial = "squared"
	}
	switch r.Spatial {
	case "squared":
		r.spatial = core.SpatialSquaredGrid
	case "radial":
		r.spatial = core.SpatialRadialGrid
	case "exact":
		r.spatial = core.SpatialExact
	default:
		return bad("unknown spatial method %q (have exact, squared, radial)", r.Spatial)
	}
	if r.maxK > 0 && r.K > r.maxK {
		if r.clampedFrom == 0 {
			r.clampedFrom = r.K
		}
		r.K = r.maxK
		if r.SmallK >= r.K {
			return bad("k = %d must be smaller than the server's K ceiling %d", r.SmallK, r.maxK)
		}
	}
	// Stack-resident for the usual handful of keywords (NewSet copies).
	ids := make([]textctx.ItemID, 0, 8)
	r.droppedKw = nil // recomputed each call, so Normalize stays idempotent
	dict := r.corpus().Dict
	for _, w := range r.Keywords {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		if id, ok := dict.Lookup(w); ok {
			ids = append(ids, id)
		} else {
			r.droppedKw = append(r.droppedKw, w)
		}
	}
	r.kwSet = textctx.NewSet(ids...)
	r.normalized = true
	return r.cacheKey(), nil
}

// cacheKey encodes the Step-1 parameters exactly (float bit patterns, so
// no two distinct parameter sets collide). The pinned corpus epoch leads
// the key: a score set is looked up only on the corpus it was computed
// on, or on a later one Engine.Mutate proved gives the same S, when it
// re-keys the entry by swapping this prefix. The singleflight group uses
// the same string, so a herd racing a mutation can never coalesce onto
// another epoch's build.
func (r *QueryRequest) cacheKey() CacheKey {
	b := make([]byte, 0, 128)
	b = strconv.AppendUint(append(b, "e="...), r.Epoch(), 10)
	b = appendHex16(append(b, ";x="...), math.Float64bits(r.X))
	b = appendHex16(append(b, ";y="...), math.Float64bits(r.Y))
	b = strconv.AppendInt(append(b, ";K="...), int64(r.K), 10)
	b = appendHex16(append(b, ";g="...), math.Float64bits(r.Gamma))
	b = strconv.AppendInt(append(b, ";s="...), int64(r.spatial), 10)
	b = r.kwSet.AppendFingerprint(append(b, ";kw="...))
	return CacheKey{s: string(b)}
}

// appendHex16 appends v as 16 zero-padded lowercase hex digits.
func appendHex16(b []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[v>>shift&0xf])
	}
	return b
}

// SpatialMethod returns the resolved spatial method (valid after
// Normalize).
func (r *QueryRequest) SpatialMethod() core.SpatialMethod { return r.spatial }

// ClampedFrom returns the original K of a request clamped by the engine's
// ceiling, or 0 if no clamp applied (valid after Normalize).
func (r *QueryRequest) ClampedFrom() int { return r.clampedFrom }

// KeywordSet returns the interned keyword set (valid after Normalize).
func (r *QueryRequest) KeywordSet() textctx.Set { return r.kwSet }

// DroppedKeywords returns the requested keywords that resolved to nothing
// in the corpus dictionary (valid after Normalize). The returned slice
// must not be modified.
func (r *QueryRequest) DroppedKeywords() []string { return r.droppedKw }

// maxContextWords bounds the context echo per place in responses; the
// full size is always reported as context_total.
const maxContextWords = 6

// PlaceResult is one selected place in a QueryResponse. Context carries at
// most maxContextWords words; ContextTotal is the true contextual-set size
// and ContextTruncated marks places whose echo was cut, so clients judging
// contextual proportionality know they are seeing a prefix.
type PlaceResult struct {
	Rank             int      `json:"rank"`
	ID               string   `json:"id"`
	X                float64  `json:"x"`
	Y                float64  `json:"y"`
	Rel              float64  `json:"rel"`
	Context          []string `json:"context"`
	ContextTotal     int      `json:"context_total"`
	ContextTruncated bool     `json:"context_truncated,omitempty"`
}

// QueryResponse is the canonical response schema, shared by /v1/search,
// the deprecated /search alias, and every element of a /v1/batch
// response. The JSON layout is unchanged from the pre-engine /search
// payload so existing clients keep working; diagnostics gains "cache".
type QueryResponse struct {
	RequestID string `json:"request_id,omitempty"`
	Query     struct {
		X        float64  `json:"x"`
		Y        float64  `json:"y"`
		Keywords []string `json:"keywords,omitempty"`
		K        int      `json:"K"`
		SmallK   int      `json:"k"`
		Lambda   float64  `json:"lambda"`
		Gamma    float64  `json:"gamma"`
		Algo     string   `json:"algo"`
	} `json:"query"`
	HPF         float64        `json:"hpf"`
	Breakdown   map[string]any `json:"breakdown"`
	Diagnostics map[string]any `json:"diagnostics"`
	Results     []PlaceResult  `json:"results"`
	// Explain carries the *explain.Report of a /v1/explain evaluation;
	// absent from every other endpoint's payload.
	Explain any `json:"explain,omitempty"`
}
