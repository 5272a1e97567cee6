package engine

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

// goldenPath holds one line per answer case. It is generated once and
// then only compared against: any change to a selection, its HPF bits,
// its breakdown or the Step-1 vectors of the set it was selected on shows
// up as a diff, whatever the code that computed it.
const goldenPath = "testdata/answers.golden"

// TestAnswerGoldens computes every case of the answer grid — algorithm ×
// spatial method × λ × γ × K, with and without keywords — over a seeded
// 1 500-place corpus and compares it line for line with goldenPath. Each
// case is retrieved and scored the way a cache miss is (Engine.build) and
// selected on that set, which then serves every algorithm and λ as a
// resident entry serves them. Run with -update to rewrite the file.
func TestAnswerGoldens(t *testing.T) {
	d := goldenCorpus(t)
	e := New(d, Options{})
	kw := d.Places[0].Context.Words(d.Dict)
	kw = kw[:min(2, len(kw))]
	algos := []core.Algorithm{core.AlgABP, core.AlgIAdU, core.AlgABPDiv, core.AlgIAdUDiv, core.AlgTopK}
	ctx := context.Background()
	var out bytes.Buffer
	for _, spatial := range []string{"exact", "squared", "radial"} {
		for ki, K := range []int{20, 200, 1000} {
			for _, gamma := range []float64{0, 0.5, 1} {
				for _, withKw := range []bool{false, true} {
					req := e.NewRequest()
					req.X, req.Y = 30+float64(17*ki), 60-float64(11*ki)
					req.K, req.SmallK, req.Gamma, req.Spatial = K, 8, gamma, spatial
					if withKw {
						req.Keywords = kw
					}
					if _, err := req.Normalize(); err != nil {
						t.Fatal(err)
					}
					full, err := e.build(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					step1 := step1Hash(full)
					for _, alg := range algos {
						for _, lambda := range []float64{0, 0.5, 1} {
							label := fmt.Sprintf("%s K=%d g=%v kw=%v %s l=%v", spatial, K, gamma, withKw, alg, lambda)
							out.WriteString(goldenLine(t, label, full, alg, lambda, step1))
						}
					}
				}
			}
		}
	}
	compareGolden(t, goldenPath, out.Bytes())
}

// goldenCorpus is the seeded 1 500-place corpus the goldens are computed
// over.
func goldenCorpus(t *testing.T) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DBpediaLike(20211104)
	cfg.Places = 1500
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// compareGolden compares got line for line with the golden file at path,
// or rewrites the file under -update.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, %s has %d", len(gotLines), path, len(wantLines))
	}
	bad := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
			if bad++; bad == 10 {
				t.Fatal("too many differing lines")
			}
		}
	}
}

// roundsGoldenPath holds one line per greedy round of the explain
// cases, generated once like goldenPath.
const roundsGoldenPath = "testdata/explain_rounds.golden"

// TestExplainRoundsGolden runs ABP and ABP_D through Engine.Explain over
// the answer goldens' corpus, K ∈ {20, 200, 1000}, λ ∈ {0, 0.5, 1} and
// odd and even k, and compares every greedy round the report records —
// the chosen places, the runner-up and both gains as float bits — line
// for line with roundsGoldenPath. Run with -update to rewrite the file.
func TestExplainRoundsGolden(t *testing.T) {
	e := New(goldenCorpus(t), Options{})
	cases := []struct {
		spatial string
		K, k    int
		algo    string
		lambda  float64
	}{
		{"exact", 20, 5, "abp", 0},
		{"exact", 20, 8, "abp", 1},
		{"exact", 20, 7, "abp-div", 0.5},
		{"exact", 20, 6, "abp-div", 1},
		{"radial", 200, 9, "abp", 0.5},
		{"radial", 200, 10, "abp", 1},
		{"radial", 200, 8, "abp-div", 0},
		{"radial", 200, 11, "abp-div", 0.5},
		{"squared", 1000, 20, "abp", 0.5},
		{"squared", 1000, 21, "abp", 1},
		{"squared", 1000, 9, "abp", 0},
		{"squared", 1000, 20, "abp-div", 0.5},
		{"squared", 1000, 9, "abp-div", 1},
	}
	var out bytes.Buffer
	for ci, c := range cases {
		req := e.NewRequest()
		req.X, req.Y = 25+float64(13*ci), 70-float64(7*ci)
		req.K, req.SmallK, req.Algo, req.Lambda, req.Gamma, req.Spatial = c.K, c.k, c.algo, c.lambda, 0.5, c.spatial
		_, rep, err := e.Explain(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if want := (c.k + 1) / 2; len(rep.Rounds) != want {
			t.Fatalf("%+v: %d rounds, want %d", c, len(rep.Rounds), want)
		}
		for _, r := range rep.Rounds {
			fmt.Fprintf(&out, "%s K=%d k=%d %s l=%v round=%d chosen=%s gain=%016x runner=%s rgain=%016x\n",
				c.spatial, c.K, c.k, c.algo, c.lambda, r.Round, strings.Join(r.ChosenIDs, ","),
				math.Float64bits(r.Gain), strings.Join(r.RunnerUpIDs, ","), math.Float64bits(r.RunnerUpGain))
		}
	}
	compareGolden(t, roundsGoldenPath, out.Bytes())
}

// goldenLine selects alg at λ on ss and renders the case: the selected
// IDs in rank order, HPF and the breakdown as float bits, and the Step-1
// hash of the set.
func goldenLine(t *testing.T, label string, ss *core.ScoreSet, alg core.Algorithm, lambda float64, step1 uint64) string {
	t.Helper()
	sel, err := core.SelectCtx(context.Background(), alg, ss, core.Params{K: 8, Lambda: lambda, Gamma: ss.Gamma})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ids := make([]string, len(sel.Indices))
	for r, i := range sel.Indices {
		ids[r] = ss.Places[i].ID
	}
	b := ss.Evaluate(sel.Indices, lambda)
	return fmt.Sprintf("%s ids=%s hpf=%016x rel=%016x pc=%016x ps=%016x total=%016x step1=%016x\n",
		label, strings.Join(ids, ","), math.Float64bits(sel.HPF), math.Float64bits(b.Rel),
		math.Float64bits(b.PC), math.Float64bits(b.PS), math.Float64bits(b.Total), step1)
}

// step1Hash is the FNV-1a hash of the bits of ss's pCS, pSS and pFS
// vectors, in that order.
func step1Hash(ss *core.ScoreSet) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range [][]float64{ss.PCS, ss.PSS, ss.PFS} {
		for _, x := range v {
			bits := math.Float64bits(x)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
