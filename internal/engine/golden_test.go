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

var updateGolden = flag.Bool("update", false, "rewrite testdata/answers.golden from the current code")

// goldenPath holds one line per answer case. It is generated once and
// then only compared against: any change to a selection, its HPF bits,
// its breakdown or the Step-1 vectors of the set it was selected on shows
// up as a diff, whatever the code that computed it.
const goldenPath = "testdata/answers.golden"

// TestAnswerGoldens computes every case of the answer grid — algorithm ×
// spatial method × λ × γ × K, with and without keywords — over a seeded
// 1 500-place corpus and compares it line for line with goldenPath. Each
// case is retrieved and scored the way a cache miss is (Engine.build) and
// selected on that full set; for K ≤ 200 the compact form, refilled by
// core.SelectCtx, must yield the same line. Run with -update to rewrite
// the file.
func TestAnswerGoldens(t *testing.T) {
	cfg := dataset.DBpediaLike(20211104)
	cfg.Places = 1500
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
					compact := full.Compact()
					for _, alg := range algos {
						for _, lambda := range []float64{0, 0.5, 1} {
							label := fmt.Sprintf("%s K=%d g=%v kw=%v %s l=%v", spatial, K, gamma, withKw, alg, lambda)
							line := goldenLine(t, label, full, alg, lambda, step1)
							if K <= 200 {
								if got := goldenLine(t, label, compact, alg, lambda, step1); got != line {
									t.Fatalf("compact set answers\n%s\nfull set answers\n%s", got, line)
								}
							}
							out.WriteString(line)
						}
					}
				}
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d answer lines, golden has %d", len(gotLines), len(wantLines))
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
