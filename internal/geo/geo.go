// Package geo provides the planar geometry primitives used throughout the
// proportional spatial keyword search library: points, Euclidean distances,
// bounding rectangles, and Ptolemy's spatial diversity/similarity measure
// (Cai et al., VLDB J. 2020; Eq. 1 of the SIGMOD'21 paper).
//
// All coordinates are float64 and all measures are pure functions, so the
// package is safe for concurrent use.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Dist returns the Euclidean distance between p and o.
func (p Point) Dist(o Point) float64 {
	dx := p.X - o.X
	dy := p.Y - o.Y
	return math.Sqrt(float64(dx*dx) + float64(dy*dy))
}

// SqDist returns the squared Euclidean distance between p and o. It avoids
// the square root and is the right primitive for comparisons.
func (p Point) SqDist(o Point) float64 {
	dx := p.X - o.X
	dy := p.Y - o.Y
	return float64(dx*dx) + float64(dy*dy)
}

// Add returns p translated by o.
func (p Point) Add(o Point) Point { return Point{p.X + o.X, p.Y + o.Y} }

// Sub returns the vector from o to p.
func (p Point) Sub(o Point) Point { return Point{p.X - o.X, p.Y - o.Y} }

// Scale returns p with both coordinates multiplied by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Angle returns the polar angle of the vector from q to p, in [0, 2π).
// The angle of the zero vector is 0.
func (p Point) Angle(q Point) float64 {
	a := math.Atan2(p.Y-q.Y, p.X-q.X)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Valid reports whether both coordinates are finite numbers.
func (p Point) Valid() bool {
	return !math.IsNaN(p.X) && !math.IsNaN(p.Y) &&
		!math.IsInf(p.X, 0) && !math.IsInf(p.Y, 0)
}

// PtolemyDiversity returns dS(pi, pj) w.r.t. the query location q (Eq. 1):
//
//	dS(pi, pj) = ||pi, pj|| / (||pi, q|| + ||pj, q||)
//
// The value is in [0, 1] by the triangle inequality; it is 1 when pi and pj
// are diametrically opposite w.r.t. q and 0 when they coincide. The
// degenerate case pi = pj = q (zero denominator) is defined as 0 diversity,
// matching the limit of two coincident points.
func PtolemyDiversity(q, pi, pj Point) float64 {
	den := pi.Dist(q) + pj.Dist(q)
	if den == 0 {
		return 0
	}
	d := pi.Dist(pj) / den
	// Guard against floating-point drift pushing the ratio above 1.
	if d > 1 {
		return 1
	}
	return d
}

// PtolemySimilarity returns sS(pi, pj) = 1 − dS(pi, pj) w.r.t. q.
func PtolemySimilarity(q, pi, pj Point) float64 {
	return 1 - PtolemyDiversity(q, pi, pj)
}

// Rect is an axis-aligned rectangle with Min ≤ Max in both dimensions.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanned by two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// RectOf returns the degenerate rectangle containing only p.
func RectOf(p Point) Rect { return Rect{Min: p, Max: p} }

// Contains reports whether p lies in r (boundaries included).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether o lies entirely within r.
func (r Rect) ContainsRect(o Rect) bool {
	return r.Contains(o.Min) && r.Contains(o.Max)
}

// Intersects reports whether r and o share any point.
func (r Rect) Intersects(o Rect) bool {
	return r.Min.X <= o.Max.X && o.Min.X <= r.Max.X &&
		r.Min.Y <= o.Max.Y && o.Min.Y <= r.Max.Y
}

// Union returns the smallest rectangle covering both r and o.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, o.Min.X), math.Min(r.Min.Y, o.Min.Y)},
		Max: Point{math.Max(r.Max.X, o.Max.X), math.Max(r.Max.Y, o.Max.Y)},
	}
}

// Extend grows r in place to cover o and returns the result.
func (r Rect) Extend(p Point) Rect {
	return r.Union(RectOf(p))
}

// Area returns the area of r.
func (r Rect) Area() float64 {
	return (r.Max.X - r.Min.X) * (r.Max.Y - r.Min.Y)
}

// Perimeter returns half the perimeter (the R*-tree "margin" measure).
func (r Rect) Perimeter() float64 {
	return (r.Max.X - r.Min.X) + (r.Max.Y - r.Min.Y)
}

// EnlargementArea returns the increase in area needed for r to cover o.
func (r Rect) EnlargementArea(o Rect) float64 {
	return float64(r.Union(o).Area()) - float64(r.Area())
}

// Center returns the centroid of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// MinDist returns the minimum Euclidean distance from p to any point of r
// (zero if p is inside r). This is the classic R-tree MINDIST bound.
func (r Rect) MinDist(p Point) float64 {
	dx := axisDist(p.X, r.Min.X, r.Max.X)
	dy := axisDist(p.Y, r.Min.Y, r.Max.Y)
	return math.Sqrt(float64(dx*dx) + float64(dy*dy))
}

// MaxDist returns the maximum Euclidean distance from p to any point of r.
func (r Rect) MaxDist(p Point) float64 {
	dx := math.Max(math.Abs(p.X-r.Min.X), math.Abs(p.X-r.Max.X))
	dy := math.Max(math.Abs(p.Y-r.Min.Y), math.Abs(p.Y-r.Max.Y))
	return math.Sqrt(float64(dx*dx) + float64(dy*dy))
}

func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

// BoundingRect returns the smallest rectangle covering all pts.
// It panics if pts is empty.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geo: BoundingRect of empty point set")
	}
	r := RectOf(pts[0])
	for _, p := range pts[1:] {
		r = r.Extend(p)
	}
	return r
}

// FarthestDist returns the largest distance from q to any point in pts
// (the paper's "fp̄", used to size grids). It returns 0 for an empty slice.
func FarthestDist(q Point, pts []Point) float64 {
	var maxSq float64
	for _, p := range pts {
		if d := q.SqDist(p); d > maxSq {
			maxSq = d
		}
	}
	return math.Sqrt(maxSq)
}
