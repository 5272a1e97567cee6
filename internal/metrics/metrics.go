// Package metrics provides selection-quality diagnostics for a result
// set R chosen from a scored set S: how proportionally R represents S's
// frequent contextual items and directions, how diverse and relevant it
// is, and whether a user could read S's dominant types off R. The
// simulated user study (internal/usereval) builds its evaluator utilities
// from these signals, and downstream applications can report them next to
// any selection.
package metrics

import (
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/textctx"
)

// DefaultMinSupportFrac is the support threshold separating "frequent"
// items (types) from rare ones: items carried by at least this fraction
// of the places in S.
const DefaultMinSupportFrac = 0.05

// Report bundles every diagnostic for one selection.
type Report struct {
	// FrequentKL is KL(S‖R) over the frequent-item distributions
	// (0 = R's emphasis matches S exactly; larger = more misleading).
	FrequentKL float64
	// InferenceMatch is 1 / (1 + FrequentKL) ∈ (0, 1].
	InferenceMatch float64
	// RareShare is the fraction of R's item occurrences that are rare in
	// S (one-off oddities read as noise).
	RareShare float64
	// Dominance ∈ [0, 1] scores whether R's most repeated informative
	// items are S's most frequent ones, in order.
	Dominance float64
	// TypeCoverage ∈ [0, 1] saturates as R covers several frequent items.
	TypeCoverage float64
	// DirectionalCoverage is 1 − TV distance between the angular
	// histograms of R and S around the query.
	DirectionalCoverage float64
	// Diversity is 1 − mean pairwise combined similarity within R.
	Diversity float64
	// MeanRelevance is the average rF of R.
	MeanRelevance float64
}

// Evaluate computes the full report for r against ss. The K×|context|
// support scan — the dominant cost — runs once and is shared by the four
// item diagnostics; the result is bitwise what the per-metric functions
// return individually.
func Evaluate(ss *core.ScoreSet, r []int) Report {
	sup := supportOf(ss)
	rep := Report{
		FrequentKL:          frequentItemKL(sup, ss, r),
		RareShare:           rareShare(sup, ss, r),
		Dominance:           dominanceAgreement(sup, ss, r),
		TypeCoverage:        typeCoverage(sup, ss, r),
		DirectionalCoverage: DirectionalCoverage(ss, r, 8),
		Diversity:           Diversity(ss, r),
		MeanRelevance:       MeanRelevance(ss, r),
	}
	rep.InferenceMatch = 1 / (1 + rep.FrequentKL)
	return rep
}

// support is the frequent-item structure of S: the items carried by at
// least minSupport(|S|) places, ascending by id, with their place counts.
// Every item diagnostic reads only this — an item absent from it is rare.
// Ascending order doubles as the accumulation order of the float sums
// below (float addition is order-dependent, and map iteration order would
// make repeated evaluations of one selection differ in the last bits).
type support struct {
	items  []textctx.ItemID
	counts []int
}

// supportOf counts, for every contextual item, the number of places in S
// carrying it, and keeps the frequent ones.
func supportOf(ss *core.ScoreSet) support {
	// Sized for the few distinct items per place a retrieved set carries,
	// so the scan does not spend its time regrowing the map.
	all := make(map[textctx.ItemID]int, 4*len(ss.Places))
	for i := range ss.Places {
		for _, it := range ss.Places[i].Context.Items() {
			all[it]++
		}
	}
	minSup := minSupport(len(ss.Places))
	var sup support
	for it, c := range all {
		if c >= minSup {
			sup.items = append(sup.items, it)
		}
	}
	slices.Sort(sup.items)
	sup.counts = make([]int, len(sup.items))
	for i, it := range sup.items {
		sup.counts[i] = all[it]
	}
	return sup
}

// index returns the position of it among the frequent items, or -1 if it
// is rare.
func (s support) index(it textctx.ItemID) int {
	if i, ok := slices.BinarySearch(s.items, it); ok {
		return i
	}
	return -1
}

// occurrences counts, per frequent item, how many places of R carry it.
func (s support) occurrences(ss *core.ScoreSet, r []int) []float64 {
	occ := make([]float64, len(s.items))
	for _, i := range r {
		for _, it := range ss.Places[i].Context.Items() {
			if f := s.index(it); f >= 0 {
				occ[f]++
			}
		}
	}
	return occ
}

// minSupport converts the default fraction into an absolute count.
func minSupport(n int) int {
	m := int(float64(n) * DefaultMinSupportFrac)
	if m < 3 {
		m = 3
	}
	return m
}

// FrequentItemKL returns KL(S‖R) between the distributions of frequent
// items in S and in R (additively smoothed). Under-representing a
// dominant item costs much more than over-representing it — the right
// asymmetry for "how wrong is a user's inference about the area".
func FrequentItemKL(ss *core.ScoreSet, r []int) float64 {
	return frequentItemKL(supportOf(ss), ss, r)
}

func frequentItemKL(sup support, ss *core.ScoreSet, r []int) float64 {
	if len(r) == 0 {
		return math.Inf(1)
	}
	var totS float64
	for _, c := range sup.counts {
		totS += float64(c)
	}
	if totS == 0 {
		return 0 // no frequent structure to misrepresent
	}
	occR := sup.occurrences(ss, r)
	var totR float64
	for _, c := range occR {
		totR += c
	}
	const alpha = 0.5
	denom := totR + alpha*float64(len(sup.items))
	var kl float64
	for f, c := range sup.counts {
		ps := float64(c) / totS
		pr := (occR[f] + alpha) / denom
		kl += ps * math.Log(ps/pr)
	}
	if kl < 0 {
		kl = 0
	}
	return kl
}

// RareShare returns the fraction of R's contextual item occurrences that
// are rare in S. An empty R returns 1 (all noise, vacuously).
func RareShare(ss *core.ScoreSet, r []int) float64 {
	return rareShare(supportOf(ss), ss, r)
}

func rareShare(sup support, ss *core.ScoreSet, r []int) float64 {
	var rare, occ float64
	for _, i := range r {
		for _, it := range ss.Places[i].Context.Items() {
			occ++
			if sup.index(it) < 0 {
				rare++
			}
		}
	}
	if occ == 0 {
		return 1
	}
	return rare / occ
}

// DominanceAgreement scores whether R's most repeated informative items
// (frequent in S but not universal — an item carried by over half the
// places identifies nothing) match S's top-3, weighting the top type
// heaviest: 0.5·[top-1 agrees] + 0.3·overlap(top-2)/2 + 0.2·overlap(top-3)/3.
func DominanceAgreement(ss *core.ScoreSet, r []int) float64 {
	return dominanceAgreement(supportOf(ss), ss, r)
}

func dominanceAgreement(sup support, ss *core.ScoreSet, r []int) float64 {
	maxSup := len(ss.Places) / 2
	occR := sup.occurrences(ss, r)
	var inS, inR []int // informative frequent-item positions, all and those R carries
	for f, c := range sup.counts {
		if c > maxSup {
			continue
		}
		inS = append(inS, f)
		if occR[f] > 0 {
			inR = append(inR, f)
		}
	}
	// Positions ascend with item id, so "smaller position" is the
	// deterministic smaller-id tie-break.
	topS := top(inS, 3, func(a, b int) bool {
		if sup.counts[a] != sup.counts[b] {
			return sup.counts[a] > sup.counts[b]
		}
		return a < b
	})
	topR := top(inR, 3, func(a, b int) bool {
		if occR[a] != occR[b] {
			return occR[a] > occR[b]
		}
		if sup.counts[a] != sup.counts[b] {
			return sup.counts[a] > sup.counts[b]
		}
		return a < b
	})
	var score float64
	if len(topS) > 0 && len(topR) > 0 && topS[0] == topR[0] {
		score += 0.5
	}
	score += 0.3 * overlap(topS, topR, 2)
	score += 0.2 * overlap(topS, topR, 3)
	return score
}

// TypeCoverage returns the fraction (saturating at six items ≈ three
// two-word types) of distinct frequent items of S appearing in R.
func TypeCoverage(ss *core.ScoreSet, r []int) float64 {
	return typeCoverage(supportOf(ss), ss, r)
}

func typeCoverage(sup support, ss *core.ScoreSet, r []int) float64 {
	if len(r) == 0 {
		return 0
	}
	var covered int
	for _, c := range sup.occurrences(ss, r) {
		if c > 0 {
			covered++
		}
	}
	c := float64(covered) / 6
	if c > 1 {
		c = 1
	}
	return c
}

// DirectionalCoverage returns 1 − total-variation distance between the
// angular histograms (the given number of sectors around the query) of R
// and S.
func DirectionalCoverage(ss *core.ScoreSet, r []int, sectors int) float64 {
	if len(r) == 0 || sectors <= 0 {
		return 0
	}
	bin := func(i int) int {
		a := ss.Places[i].Loc.Angle(ss.Q)
		s := int(a / (2 * math.Pi / float64(sectors)))
		if s >= sectors {
			s = sectors - 1
		}
		return s
	}
	hs := make([]float64, sectors)
	hr := make([]float64, sectors)
	for i := range ss.Places {
		hs[bin(i)]++
	}
	for _, i := range r {
		hr[bin(i)]++
	}
	var tv float64
	for b := range hs {
		tv += math.Abs(hs[b]/float64(len(ss.Places)) - hr[b]/float64(len(r)))
	}
	return 1 - tv/2
}

// Diversity returns 1 − mean pairwise combined similarity sF within R
// (0 for fewer than two places).
func Diversity(ss *core.ScoreSet, r []int) float64 {
	if len(r) < 2 {
		return 0
	}
	var sum float64
	var n int
	for a := 0; a < len(r); a++ {
		for b := a + 1; b < len(r); b++ {
			_, _, sf := ss.Pair(r[a], r[b])
			sum += sf
			n++
		}
	}
	return 1 - sum/float64(n)
}

// MeanRelevance returns the average rF over R (0 for empty R).
func MeanRelevance(ss *core.ScoreSet, r []int) float64 {
	if len(r) == 0 {
		return 0
	}
	var sum float64
	for _, i := range r {
		sum += ss.Places[i].Rel
	}
	return sum / float64(len(r))
}

// top returns the first n of xs under before, a strict total order.
func top(xs []int, n int, before func(a, b int) bool) []int {
	sort.Slice(xs, func(i, j int) bool { return before(xs[i], xs[j]) })
	if len(xs) > n {
		xs = xs[:n]
	}
	return xs
}

// overlap is |prefix_n(a) ∩ prefix_n(b)| / n, for duplicate-free a and b.
func overlap(a, b []int, n int) float64 {
	if len(a) > n {
		a = a[:n]
	}
	if len(b) > n {
		b = b[:n]
	}
	var inter int
	for _, x := range a {
		for _, y := range b {
			if x == y {
				inter++
			}
		}
	}
	return float64(inter) / float64(n)
}
