package workload

import (
	"net/url"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// small returns the named spec on a corpus small enough for a unit test.
func small(t *testing.T, name string) Spec {
	t.Helper()
	spec, ok := ByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	spec.Places = 1500
	return spec
}

func corpus(t *testing.T, spec Spec) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Generate(CorpusConfig(spec.Places))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// render is the byte form of the first n operations.
func render(t *testing.T, spec Spec, seed int64, n int) string {
	t.Helper()
	seq, err := NewSequence(spec, corpus(t, spec), seed)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		op := seq.Op(i)
		b.WriteString(op.Target)
		b.WriteByte('\n')
		b.WriteString(op.Body)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for _, s := range Specs() {
		spec := small(t, s.Name)
		a, b := render(t, spec, 7, 3000), render(t, spec, 7, 3000)
		if a != b {
			t.Errorf("%s: same seed gave different request sequences", spec.Name)
		}
		if c := render(t, spec, 8, 3000); a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", spec.Name)
		}
	}
}

// cacheKeys parses the first n searches the way the server does and
// returns their score-set cache keys.
func cacheKeys(t *testing.T, spec Spec, n int) []string {
	t.Helper()
	d := corpus(t, spec)
	seq, err := NewSequence(spec, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(d, engine.Options{MaxK: 2000})
	var keys []string
	for i := 0; len(keys) < n; i++ {
		op := seq.Op(i)
		if op.Kind != Search {
			continue
		}
		_, raw, _ := strings.Cut(op.Target, "?")
		vals, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		req, err := eng.RequestFromValues(vals)
		if err != nil {
			t.Fatalf("op %d %s: %v", i, op.Target, err)
		}
		key, err := req.Normalize()
		if err != nil {
			t.Fatalf("op %d %s: %v", i, op.Target, err)
		}
		keys = append(keys, key.String())
	}
	return keys
}

func TestUniqueWorkloadsNeverRepeatACacheKey(t *testing.T) {
	for _, name := range []string{"miss_100k_k200", "miss_20k_k1000"} {
		seen := map[string]int{}
		for i, k := range cacheKeys(t, small(t, name), 5000) {
			if j, dup := seen[k]; dup {
				t.Fatalf("%s: searches %d and %d share cache key %s", name, j, i, k)
			}
			seen[k] = i
		}
	}
}

func TestRepeatingWorkloadsStayInsideThePool(t *testing.T) {
	spec := small(t, "hit_zipf")
	distinct := map[string]bool{}
	for _, k := range cacheKeys(t, spec, 5000) {
		distinct[k] = true
	}
	if len(distinct) > spec.Pool || len(distinct) < 2 {
		t.Fatalf("5000 searches used %d distinct cache keys, want 2..%d", len(distinct), spec.Pool)
	}
}

func TestWriteShare(t *testing.T) {
	spec := small(t, "mixed_rw")
	seq, err := NewSequence(spec, corpus(t, spec), 5)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	writes, ids := 0, map[string]bool{}
	for i := 0; i < n; i++ {
		if op := seq.Op(i); op.Kind == Write {
			writes++
			_, rest, _ := strings.Cut(op.Body, `"id":"`)
			id, _, _ := strings.Cut(rest, `"`)
			ids[id] = true
		}
	}
	if share := float64(writes) / n; share < 0.04 || share > 0.06 {
		t.Errorf("write share %.3f, want about %.2f", share, spec.WriteShare)
	}
	if len(ids) != spec.WriteIDs {
		t.Errorf("writes touched %d place IDs, want %d", len(ids), spec.WriteIDs)
	}
}

func TestQueriesThatCannotFillKAreRejected(t *testing.T) {
	spec := small(t, "hit_zipf")
	spec.Places = 8 // fewer places than k+1
	if _, err := NewSequence(spec, corpus(t, spec), 1); err == nil {
		t.Fatal("a corpus smaller than k was accepted")
	}
}
