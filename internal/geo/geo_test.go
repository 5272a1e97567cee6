package geo

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestDist(t *testing.T) {
	tests := []struct {
		a, b Point
		want float64
	}{
		{Pt(0, 0), Pt(0, 0), 0},
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(-1, -1), Pt(2, 3), 5},
		{Pt(1, 1), Pt(1, 5), 4},
	}
	for _, tc := range tests {
		if got := tc.a.Dist(tc.b); !almostEqual(got, tc.want, eps) {
			t.Errorf("Dist(%v, %v) = %g, want %g", tc.a, tc.b, got, tc.want)
		}
		if got := tc.a.SqDist(tc.b); !almostEqual(got, tc.want*tc.want, eps) {
			t.Errorf("SqDist(%v, %v) = %g, want %g", tc.a, tc.b, got, tc.want*tc.want)
		}
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Pt(1, 2)
	if got := p.Add(Pt(3, -1)); got != Pt(4, 1) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(Pt(3, -1)); got != Pt(-2, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
}

func TestAngle(t *testing.T) {
	q := Pt(0, 0)
	tests := []struct {
		p    Point
		want float64
	}{
		{Pt(1, 0), 0},
		{Pt(0, 1), math.Pi / 2},
		{Pt(-1, 0), math.Pi},
		{Pt(0, -1), 3 * math.Pi / 2},
		{Pt(1, 1), math.Pi / 4},
	}
	for _, tc := range tests {
		if got := tc.p.Angle(q); !almostEqual(got, tc.want, eps) {
			t.Errorf("Angle(%v) = %g, want %g", tc.p, got, tc.want)
		}
	}
}

func TestAngleRange(t *testing.T) {
	f := func(px, py, qx, qy float64) bool {
		a := Pt(px, py).Angle(Pt(qx, qy))
		return a >= 0 && a < 2*math.Pi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointValid(t *testing.T) {
	if !Pt(1, 2).Valid() {
		t.Error("finite point reported invalid")
	}
	for _, p := range []Point{
		{math.NaN(), 0}, {0, math.NaN()},
		{math.Inf(1), 0}, {0, math.Inf(-1)},
	} {
		if p.Valid() {
			t.Errorf("point %v reported valid", p)
		}
	}
}

// TestPtolemyDiametricallyOpposite checks the paper's motivating property:
// diametrically opposite points w.r.t. q get maximum diversity 1.
func TestPtolemyDiametricallyOpposite(t *testing.T) {
	q := Pt(3, 7)
	pi := Pt(5, 7)
	pj := Pt(1, 7)
	if got := PtolemyDiversity(q, pi, pj); !almostEqual(got, 1, eps) {
		t.Errorf("dS(opposite) = %g, want 1", got)
	}
	if got := PtolemySimilarity(q, pi, pj); !almostEqual(got, 0, eps) {
		t.Errorf("sS(opposite) = %g, want 0", got)
	}
}

// TestPtolemySameDirection reproduces the Figure 2 intuition: a pair in the
// same direction w.r.t. q has lower diversity than an equally distant pair
// in opposite directions.
func TestPtolemySameDirection(t *testing.T) {
	q := Pt(0, 0)
	// Pair A: opposite directions, distance 2 apart.
	dA := PtolemyDiversity(q, Pt(-1, 0), Pt(1, 0))
	// Pair C: same direction (both north of q), also distance 2 apart.
	dC := PtolemyDiversity(q, Pt(0, 1), Pt(0, 3))
	// Pair B: same direction but further from each other than C.
	dB := PtolemyDiversity(q, Pt(0, 1), Pt(0, 6))
	if !(dA > dB && dB > dC) {
		t.Errorf("want dS(A) > dS(B) > dS(C), got %g, %g, %g", dA, dB, dC)
	}
	if !almostEqual(dA, 1, eps) {
		t.Errorf("dS(A) = %g, want 1", dA)
	}
}

func TestPtolemyCoincident(t *testing.T) {
	q := Pt(0, 0)
	if got := PtolemyDiversity(q, Pt(2, 2), Pt(2, 2)); got != 0 {
		t.Errorf("dS(coincident points) = %g, want 0", got)
	}
	// Degenerate: both points at the query location.
	if got := PtolemyDiversity(q, q, q); got != 0 {
		t.Errorf("dS(q, q) = %g, want 0", got)
	}
	if got := PtolemySimilarity(q, q, q); got != 1 {
		t.Errorf("sS(q, q) = %g, want 1", got)
	}
}

// Property: dS is always in [0, 1] and symmetric.
func TestPtolemyRangeAndSymmetry(t *testing.T) {
	f := func(qx, qy, ax, ay, bx, by int16) bool {
		q, a, b := Pt(float64(qx), float64(qy)), Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by))
		d1 := PtolemyDiversity(q, a, b)
		d2 := PtolemyDiversity(q, b, a)
		return d1 >= 0 && d1 <= 1 && almostEqual(d1, d2, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: dS satisfies the triangle inequality (needed by the Section 8
// approximation-bound analysis, which cites Cai et al. for this fact).
func TestPtolemyTriangleInequality(t *testing.T) {
	f := func(qx, qy, ux, uy, vx, vy, wx, wy int8) bool {
		q := Pt(float64(qx), float64(qy))
		u := Pt(float64(ux), float64(uy))
		v := Pt(float64(vx), float64(vy))
		w := Pt(float64(wx), float64(wy))
		duv := PtolemyDiversity(q, u, v)
		dvw := PtolemyDiversity(q, v, w)
		duw := PtolemyDiversity(q, u, w)
		return duv+dvw >= duw-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestPtolemyScaleFree verifies Theorem 7.1: scaling both points' offsets
// from q by any positive factor leaves sS unchanged.
func TestPtolemyScaleFree(t *testing.T) {
	f := func(qx, qy, ax, ay, bx, by int16, fraw uint16) bool {
		q, a, b := Pt(float64(qx), float64(qy)), Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by))
		factor := 0.001 + float64(fraw)/128 // positive, spans (0.001, ~512]
		a2 := q.Add(a.Sub(q).Scale(factor))
		b2 := q.Add(b.Sub(q).Scale(factor))
		s1 := PtolemySimilarity(q, a, b)
		s2 := PtolemySimilarity(q, a2, b2)
		return almostEqual(s1, s2, 1e-6)
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPtolemyScaleFreeTranslation: sS depends only on offsets from q, so
// translating the whole configuration leaves it unchanged.
func TestPtolemyScaleFreeTranslation(t *testing.T) {
	f := func(qx, qy, ax, ay, bx, by, tx, ty int16) bool {
		q, a, b := Pt(float64(qx), float64(qy)), Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by))
		tr := Pt(float64(tx), float64(ty))
		s1 := PtolemySimilarity(q, a, b)
		s2 := PtolemySimilarity(q.Add(tr), a.Add(tr), b.Add(tr))
		return almostEqual(s1, s2, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Pt(2, 3), Pt(0, 1))
	if r.Min != Pt(0, 1) || r.Max != Pt(2, 3) {
		t.Fatalf("NewRect normalised wrong: %+v", r)
	}
	if !r.Contains(Pt(1, 2)) || !r.Contains(Pt(0, 1)) || !r.Contains(Pt(2, 3)) {
		t.Error("Contains failed for interior/boundary points")
	}
	if r.Contains(Pt(3, 2)) || r.Contains(Pt(1, 0)) {
		t.Error("Contains accepted exterior point")
	}
}

func TestRectUnionIntersect(t *testing.T) {
	a := NewRect(Pt(0, 0), Pt(2, 2))
	b := NewRect(Pt(1, 1), Pt(3, 3))
	c := NewRect(Pt(5, 5), Pt(6, 6))
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("overlapping rects reported disjoint")
	}
	if a.Intersects(c) {
		t.Error("disjoint rects reported intersecting")
	}
	u := a.Union(b)
	if u.Min != Pt(0, 0) || u.Max != Pt(3, 3) {
		t.Errorf("Union = %+v", u)
	}
	if !u.ContainsRect(a) || !u.ContainsRect(b) {
		t.Error("union does not contain operands")
	}
}

func TestRectTouchingEdgesIntersect(t *testing.T) {
	a := NewRect(Pt(0, 0), Pt(1, 1))
	b := NewRect(Pt(1, 0), Pt(2, 1))
	if !a.Intersects(b) {
		t.Error("rects sharing an edge should intersect")
	}
}

func TestMinMaxDist(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(2, 2))
	tests := []struct {
		p        Point
		min, max float64
	}{
		{Pt(1, 1), 0, math.Sqrt2},       // inside
		{Pt(3, 1), 1, math.Sqrt(9 + 1)}, // right of rect; max dist to corner (0,0) or (0,2)
		{Pt(-1, -1), math.Sqrt2, 3 * math.Sqrt2},
	}
	for _, tc := range tests {
		if got := r.MinDist(tc.p); !almostEqual(got, tc.min, eps) {
			t.Errorf("MinDist(%v) = %g, want %g", tc.p, got, tc.min)
		}
		if got := r.MaxDist(tc.p); !almostEqual(got, tc.max, eps) {
			t.Errorf("MaxDist(%v) = %g, want %g", tc.p, got, tc.max)
		}
	}
}

// Property: MinDist ≤ dist to center ≤ MaxDist for any point.
func TestMinMaxDistBracket(t *testing.T) {
	f := func(ax, ay, bx, by, px, py int16) bool {
		r := NewRect(Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by)))
		p := Pt(float64(px), float64(py))
		d := p.Dist(Pt((r.Min.X+r.Max.X)/2, (r.Min.Y+r.Max.Y)/2))
		return r.MinDist(p) <= d+1e-9 && d <= r.MaxDist(p)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFarthestDist(t *testing.T) {
	q := Pt(0, 0)
	if got := FarthestDist(q, nil); got != 0 {
		t.Errorf("FarthestDist(empty) = %g, want 0", got)
	}
	pts := []Point{Pt(1, 0), Pt(0, -7), Pt(3, 4)}
	if got := FarthestDist(q, pts); !almostEqual(got, 7, eps) {
		t.Errorf("FarthestDist = %g, want 7", got)
	}
}

func BenchmarkPtolemySimilarity(b *testing.B) {
	q, p1, p2 := Pt(0.5, 0.5), Pt(0.25, 0.75), Pt(0.9, 0.1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += PtolemySimilarity(q, p1, p2)
	}
	_ = sink
}
