package core

import "testing"

func TestSelectDispatch(t *testing.T) {
	ss := defaultScoreSet(t, 20, 51)
	p := Params{K: 5, Lambda: 0.5, Gamma: 0.5}
	for _, alg := range Algorithms() {
		sel, err := Select(alg, ss, p)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		selectionOK(t, string(alg), sel, 5, ss.K())
	}
	if _, err := Select("sorcery", ss, p); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestSelectMatchesDirectCalls(t *testing.T) {
	ss := defaultScoreSet(t, 25, 53)
	p := Params{K: 6, Lambda: 0.5, Gamma: 0.5}
	direct, err := ABP(ss, p)
	if err != nil {
		t.Fatal(err)
	}
	viaName, err := Select(AlgABP, ss, p)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(direct.Indices, viaName.Indices) {
		t.Error("dispatch result differs from direct call")
	}
}

func TestAlgorithmsSortedAndComplete(t *testing.T) {
	algs := Algorithms()
	if len(algs) != 6 {
		t.Fatalf("expected 6 registered algorithms, got %d: %v", len(algs), algs)
	}
	for i := 1; i < len(algs); i++ {
		if algs[i] <= algs[i-1] {
			t.Fatal("Algorithms not sorted")
		}
	}
}
