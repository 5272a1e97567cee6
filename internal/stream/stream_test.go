package stream

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/textctx"
)

func randomPost(rng *rand.Rand, i int) core.Place {
	ids := make([]textctx.ItemID, 2+rng.Intn(6))
	for j := range ids {
		ids[j] = textctx.ItemID(rng.Intn(30))
	}
	return core.Place{
		ID:      string(rune('a'+i%26)) + string(rune('0'+i%10)),
		Loc:     geo.Pt(rng.NormFloat64(), rng.NormFloat64()),
		Rel:     0.2 + 0.8*rng.Float64(),
		Context: textctx.NewSet(ids...),
	}
}

func TestNewWindowValidation(t *testing.T) {
	q := geo.Pt(0, 0)
	if _, err := NewWindow(geo.Pt(math.NaN(), 0), 10, 0.5); err == nil {
		t.Error("NaN query accepted")
	}
	if _, err := NewWindow(q, 1, 0.5); err == nil {
		t.Error("capacity 1 accepted")
	}
	if _, err := NewWindow(q, 10, 1.5); err == nil {
		t.Error("bad gamma accepted")
	}
}

func TestPushValidation(t *testing.T) {
	w, err := NewWindow(geo.Pt(0, 0), 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Push(core.Place{Loc: geo.Pt(0, 0), Rel: 7}); err == nil {
		t.Error("invalid post accepted")
	}
	if _, err := w.Snapshot(); err == nil {
		t.Error("snapshot of empty window accepted")
	}
}

func TestFIFOEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w, err := NewWindow(geo.Pt(0, 0), 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	posts := make([]core.Place, 6)
	for i := range posts {
		posts[i] = randomPost(rng, i)
		posts[i].ID = string(rune('A' + i))
	}
	for i := 0; i < 3; i++ {
		if _, did, err := w.Push(posts[i]); err != nil || did {
			t.Fatalf("push %d: evicted=%v err=%v", i, did, err)
		}
	}
	// Next pushes must evict A, then B, then C — strict arrival order.
	for i := 3; i < 6; i++ {
		ev, did, err := w.Push(posts[i])
		if err != nil || !did {
			t.Fatalf("push %d: evicted=%v err=%v", i, did, err)
		}
		if want := string(rune('A' + i - 3)); ev.ID != want {
			t.Fatalf("push %d evicted %q, want %q", i, ev.ID, want)
		}
	}
	if w.Len() != 3 || w.Arrivals() != 6 {
		t.Errorf("Len=%d Arrivals=%d", w.Len(), w.Arrivals())
	}
}

// TestIncrementalMatchesRecompute is the core correctness property: after
// any sequence of pushes and evictions, the window snapshot must equal a
// from-scratch core.ComputeScores over the same live posts.
func TestIncrementalMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := geo.Pt(0.3, -0.2)
	for _, capacity := range []int{2, 3, 8, 20} {
		w, err := NewWindow(q, capacity, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 4*capacity; step++ {
			if _, _, err := w.Push(randomPost(rng, step)); err != nil {
				t.Fatal(err)
			}
			if step%3 != 0 {
				continue // check on a subsample to keep the test fast
			}
			snap, err := w.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// The matrix engines: the default fused pass keeps no SC or SS
			// triangle to compare with.
			want, err := core.ComputeScores(q, snap.Places, core.ScoreOptions{Gamma: 0.4, Contextual: textctx.MSJHEngine{}})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < snap.K(); i++ {
				if math.Abs(snap.PCS[i]-want.PCS[i]) > 1e-9 {
					t.Fatalf("cap %d step %d: pCS[%d] = %g, want %g",
						capacity, step, i, snap.PCS[i], want.PCS[i])
				}
				if math.Abs(snap.PSS[i]-want.PSS[i]) > 1e-9 {
					t.Fatalf("cap %d step %d: pSS[%d] = %g, want %g",
						capacity, step, i, snap.PSS[i], want.PSS[i])
				}
				if math.Abs(snap.PFS[i]-want.PFS[i]) > 1e-9 {
					t.Fatalf("cap %d step %d: pFS mismatch", capacity, step)
				}
			}
			if d := snap.SC.MaxAbsDiff(want.SC); d > 1e-12 {
				t.Fatalf("cap %d step %d: SC differs by %g", capacity, step, d)
			}
			if d := snap.SS.MaxAbsDiff(want.SS); d > 1e-9 {
				t.Fatalf("cap %d step %d: SS differs by %g", capacity, step, d)
			}
		}
	}
}

// TestSnapshotIsolation: mutating the window after Snapshot must not
// change the snapshot.
func TestSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w, err := NewWindow(geo.Pt(0, 0), 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := w.Push(randomPost(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), snap.PCS...)
	for i := 5; i < 15; i++ {
		if _, _, err := w.Push(randomPost(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range before {
		if snap.PCS[i] != before[i] {
			t.Fatal("snapshot mutated by later pushes")
		}
	}
}

// TestSelectOverWindow: proportional selection works over the sliding
// window and tracks the stream (the selection changes as content drifts).
func TestSelectOverWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w, err := NewWindow(geo.Pt(0, 0), 40, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, _, err := w.Push(randomPost(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	p := core.Params{K: 5, Lambda: 0.5, Gamma: 0.5}
	sel1, ss1, err := w.Select(core.AlgABP, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel1.Indices) != 5 || ss1.K() != 40 {
		t.Fatalf("selection %d over %d", len(sel1.Indices), ss1.K())
	}
	// Drift the stream completely and re-select.
	for i := 40; i < 120; i++ {
		if _, _, err := w.Push(randomPost(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	sel2, ss2, err := w.Select(core.AlgABP, p)
	if err != nil {
		t.Fatal(err)
	}
	// The old posts are gone, so the selected IDs come from the new pool.
	old := map[string]bool{}
	for _, i := range sel1.Indices {
		old[ss1.Places[i].ID+ss1.Places[i].Loc.String()] = true
	}
	for _, i := range sel2.Indices {
		key := ss2.Places[i].ID + ss2.Places[i].Loc.String()
		if old[key] {
			t.Errorf("selection still contains evicted post %s", key)
		}
	}
}

func BenchmarkWindowPush(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w, err := NewWindow(geo.Pt(0, 0), 500, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	posts := make([]core.Place, 1000)
	for i := range posts {
		posts[i] = randomPost(rng, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.Push(posts[i%len(posts)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWindowSnapshotAndSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w, err := NewWindow(geo.Pt(0, 0), 200, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, _, err := w.Push(randomPost(rng, i)); err != nil {
			b.Fatal(err)
		}
	}
	p := core.Params{K: 10, Lambda: 0.5, Gamma: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.Select(core.AlgIAdU, p); err != nil {
			b.Fatal(err)
		}
	}
}
