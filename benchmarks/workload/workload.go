// Package workload generates the benchmark's inputs: the corpus
// configurations and the request sequence of each workload. The server
// under test only ever sees the corpus file and the HTTP requests.
//
// The corpora and the query pools drawn from them are the benchmark's
// fixed data set, generated from a constant; the seed makes the traffic:
// the order the pool is visited in, the Zipf draws, the location shifts
// that make cache keys unique, and every write. Query cost on these
// corpora is heavy-tailed (a common keyword costs ten times a rare one),
// and a run executes only ~1500 misses, so a pool redrawn per seed moved
// every latency and throughput metric by ±15% between seeds — more than
// any regression bound. With the pool fixed and every run visiting all of
// it, seeds differ in traffic, not in how expensive their queries happen
// to be.
package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// Spec is one workload: the corpus it runs on, the server flags it needs,
// the query shape, and the latency limits its operations must meet.
type Spec struct {
	Name string
	// Places is the corpus size.
	Places int
	// Shards and Step1Workers become -shards / -step1-workers (0: flag
	// left at its default).
	Shards, Step1Workers int
	// Mutation starts the server with -enable-mutation and a WAL
	// (-wal-sync always).
	Mutation bool
	// K and SmallK are the retrieval and result sizes of every search.
	K, SmallK int
	// Pool is the number of distinct GenQueries queries searches draw from.
	Pool int
	// Unique shifts every search's location by (n+1)·1e-9, so no two
	// requests share a score-set cache key: every request is a miss.
	Unique bool
	// ZipfS skews which pool query a non-unique search repeats.
	ZipfS float64
	// WriteShare is the fraction of operations that are single-upsert
	// POST /v1/corpus writes, spread over WriteIDs harness-owned place IDs.
	WriteShare float64
	WriteIDs   int
	// SearchLimit and WriteLimit are the server's own default SLO
	// objectives for the class the operations land in; a slower operation
	// counts against fail_rate.
	SearchLimit, WriteLimit time.Duration
	// FillOps is the number of warm-up operations, after the set-up
	// searches and the correctness gate, that bring the score-set cache to
	// steady state. The unique workloads have issued over 300 misses by
	// then, so the 128-entry LRU is full and evicting.
	FillOps int
}

// specs lists the workloads. Each stresses a different set of layers, so
// that an optimisation exercised by one is bypassed by another;
// BENCHMARK.json records why each exists in one line.
var specs = []Spec{
	{
		// 100% score-set cache hits: the HTTP layer, BuildResponse with
		// metrics.Evaluate, and JSON encode do all the work; retrieve,
		// Step 1 and Step 2 do none.
		Name:   "hit_zipf",
		Places: 1500, K: 200, SmallK: 10, Pool: 32, ZipfS: 1.3,
		SearchLimit: 10 * time.Millisecond, FillOps: 256,
	},
	{
		// Every request a miss on a large corpus: sharded IR-tree retrieval
		// and the k-way merge dominate; Step 1 + Step 2 are under a tenth.
		Name:   "miss_100k_k200",
		Places: 100000, Shards: 2, Step1Workers: 2, K: 200, SmallK: 10, Pool: 256, Unique: true,
		SearchLimit: 250 * time.Millisecond, FillOps: 200,
	},
	{
		// Every request a miss at the top of the paper's K range: the
		// quadratic layers (msJh pCS, grid pSS, score assembly, the ABP pair
		// heap) dominate, and ~24 MB per score set overflows the 128-entry
		// LRU, so memory and eviction cost show here.
		Name:   "miss_20k_k1000",
		Places: 20000, Shards: 2, Step1Workers: 2, K: 1000, SmallK: 20, Pool: 256, Unique: true,
		SearchLimit: 250 * time.Millisecond, FillOps: 200,
	},
	{
		// hit_zipf's searches with 5% durable writes: each write appends and
		// fsyncs, rebuilds the index, publishes an epoch and sweeps the
		// cache, so the pool recomputes in waves. Whatever is memoised harder
		// to speed hit_zipf up is paid for here.
		Name:   "mixed_rw",
		Places: 1500, Mutation: true, K: 200, SmallK: 10, Pool: 32, ZipfS: 1.3,
		WriteShare: 0.05, WriteIDs: 64,
		SearchLimit: 250 * time.Millisecond, WriteLimit: time.Second, FillOps: 256,
	},
}

// Specs returns every workload, in the order the full benchmark runs them.
func Specs() []Spec { return append([]Spec(nil), specs...) }

// ByName finds a workload.
func ByName(name string) (Spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// ServerFlags returns the propserve flags the workload needs beyond -data
// and -addr. walDir is used only by mutation workloads.
func (s Spec) ServerFlags(walDir string) []string {
	flags := []string{"-access-log=false"}
	if s.Shards > 0 {
		flags = append(flags, "-shards", strconv.Itoa(s.Shards))
	}
	if s.Step1Workers > 0 {
		flags = append(flags, "-step1-workers", strconv.Itoa(s.Step1Workers))
	}
	if s.Mutation {
		flags = append(flags, "-enable-mutation", "-wal-dir", walDir, "-wal-sync", "always")
	}
	return flags
}

// dataSeed generates the corpora and the query pools (see the package
// comment for why they do not follow the workload seed).
const dataSeed = 20210620

// CorpusConfig is the DBpedia-like generator configuration of the corpus
// of the given size. Workloads of equal size share one corpus.
func CorpusConfig(places int) dataset.Config {
	cfg := dataset.DBpediaLike(dataSeed)
	cfg.Places = places
	return cfg
}

// Kind tells searches from writes.
type Kind uint8

const (
	Search Kind = iota
	Write
)

// Op is one HTTP operation: GET Target for a search, POST Target with
// Body for a write. Pool is the index of the pool query a search was
// made from.
type Op struct {
	Kind   Kind
	Target string
	Body   string
	Pool   int
}

// ringLen is the length of the pre-drawn choice ring (which pool query,
// search or write); operation n reads slot n mod ringLen.
const ringLen = 1 << 16

// rotateEvery is how many operations a repeating workload's Zipf ranks
// stay on the same pool queries before shifting by one: the hottest query
// takes a third of the traffic, and without the rotation a run would
// measure that one query's response rather than the pool's.
const rotateEvery = 64

// Sequence is a workload's request sequence: Op(n) is a pure function of
// (spec, corpus, seed, n), so concurrent clients drawing successive n
// issue the same requests whatever their interleaving.
type Sequence struct {
	spec  Spec
	seed  int64
	shift float64 // seed-derived base of the unique workloads' location shift
	pool  []poolQuery
	pick  []uint16 // pool index per ring slot
	write []bool   // ring slot is a write
	words []string // dictionary words writes draw contexts from
	ext   float64
}

type poolQuery struct {
	x, y float64
	// rest is the URL query after the location: keywords and the fixed
	// K/k/algo/spatial parameters.
	rest string
}

// NewSequence draws the workload's query pool from d, the workload's
// corpus, with GenQueries, draws the traffic from seed, and validates the
// pool: every query must retrieve more than k places, or the
// server would answer 400.
func NewSequence(spec Spec, d *dataset.Dataset, seed int64) (*Sequence, error) {
	queries, err := d.GenQueries(spec.Pool, spec.SmallK+1, dataSeed)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", spec.Name, err)
	}
	s := &Sequence{spec: spec, seed: seed, ext: d.Config.Extent, shift: unit(mix(uint64(seed), 0)) * 1e-6}
	for i, q := range queries {
		got, err := d.Retrieve(q, spec.SmallK+1)
		if err != nil {
			return nil, fmt.Errorf("workload %s: query %d: %w", spec.Name, i, err)
		}
		if len(got) <= spec.SmallK {
			return nil, fmt.Errorf("workload %s: query %d retrieves %d places, need more than k=%d",
				spec.Name, i, len(got), spec.SmallK)
		}
		v := url.Values{}
		v.Set("keywords", strings.Join(q.Keywords.Words(d.Dict), ","))
		v.Set("K", strconv.Itoa(spec.K))
		v.Set("k", strconv.Itoa(spec.SmallK))
		v.Set("algo", "abp")
		v.Set("spatial", "squared")
		s.pool = append(s.pool, poolQuery{x: q.Loc.X, y: q.Loc.Y, rest: v.Encode()})
	}
	rng := rand.New(rand.NewSource(seed))
	s.pick = make([]uint16, ringLen)
	if spec.ZipfS > 1 {
		z := rand.NewZipf(rng, spec.ZipfS, 1, uint64(spec.Pool-1))
		for i := range s.pick {
			s.pick[i] = uint16((int(z.Uint64()) + i/rotateEvery) % spec.Pool)
		}
	} else {
		// One random permutation of the pool after another: every stretch
		// of Pool operations visits every query once.
		for i := 0; i < ringLen; i += spec.Pool {
			for j, p := range rng.Perm(spec.Pool) {
				if i+j < ringLen {
					s.pick[i+j] = uint16(p)
				}
			}
		}
	}
	if spec.WriteShare > 0 {
		s.write = make([]bool, ringLen)
		for i := range s.write {
			s.write[i] = rng.Float64() < spec.WriteShare
		}
		s.words = d.Dict.Words()
	}
	return s, nil
}

// Op returns operation n of the sequence.
func (s *Sequence) Op(n int) Op {
	slot := n % ringLen
	if s.write != nil && s.write[slot] {
		return s.writeOp(n)
	}
	p := int(s.pick[slot])
	q := s.pool[p]
	x := q.x
	if s.spec.Unique {
		// Steps of 1e-9 are ~1e5 ulps of a coordinate in [0, 100], so
		// distinct n give distinct float64 locations, and 'g'/-1 formatting
		// round-trips them exactly: distinct cache keys, same neighbourhood.
		x += s.shift + float64(n+1)*1e-9
	}
	return Op{Kind: Search, Pool: p, Target: searchTarget(x, q.y, q.rest)}
}

// PoolOps returns one search per pool query, at the unshifted location.
func (s *Sequence) PoolOps() []Op {
	ops := make([]Op, len(s.pool))
	for i, q := range s.pool {
		ops[i] = Op{Kind: Search, Pool: i, Target: searchTarget(q.x, q.y, q.rest)}
	}
	return ops
}

func searchTarget(x, y float64, rest string) string {
	return "/v1/search?x=" + strconv.FormatFloat(x, 'g', -1, 64) +
		"&y=" + strconv.FormatFloat(y, 'g', -1, 64) + "&" + rest
}

// writeOp upserts one of the harness-owned places at a location and with
// a three-word context derived from (seed, n).
func (s *Sequence) writeOp(n int) Op {
	h := mix(uint64(s.seed), uint64(n))
	id := h % uint64(s.spec.WriteIDs)
	x := unit(mix(h, 1)) * s.ext
	y := unit(mix(h, 2)) * s.ext
	words := make([]string, 3)
	for i := range words {
		words[i] = s.words[mix(h, uint64(3+i))%uint64(len(s.words))]
	}
	body, err := json.Marshal(engine.Mutation{Upserts: []dataset.Upsert{{
		ID: "bench:" + strconv.FormatUint(id, 10), X: x, Y: y, Context: words,
	}}})
	if err != nil {
		panic(err) // strings and finite floats always marshal
	}
	return Op{Kind: Write, Target: "/v1/corpus", Body: string(body), Pool: -1}
}

// mix is the splitmix64 finaliser over a ^ golden·(b+1): a cheap
// stateless hash, so writeOp needs no per-operation generator.
func mix(a, b uint64) uint64 {
	z := a ^ (b+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / math.Exp2(53) }
