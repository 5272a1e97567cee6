package textctx

import (
	"bytes"
	"testing"
)

// FuzzEnginesAgree feeds arbitrary byte strings as set contents and
// checks that msJh, the naive inverted engine and the baseline compute
// identical similarity matrices, and that Jaccard stays within [0, 1].
// The three sets are padded with 64 sets cut from their concatenation, so
// the engines compare many overlapping sets, not just three.
func FuzzEnginesAgree(f *testing.F) {
	f.Add([]byte("abcd"), []byte("ad"), []byte("efg"))
	f.Add([]byte(""), []byte("aa"), []byte("a"))
	f.Add([]byte{0, 1, 2, 255}, []byte{255, 255}, []byte{7})
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		toSet := func(raw []byte) Set {
			ids := make([]ItemID, len(raw))
			for i, v := range raw {
				ids[i] = ItemID(v)
			}
			return NewSet(ids...)
		}
		sets := []Set{toSet(a), toSet(b), toSet(c)}
		all := append(append(append([]byte{}, a...), b...), c...)
		for k := 0; k < 64; k++ {
			lo := k % (len(all) + 1)
			sets = append(sets, toSet(all[lo:min(len(all), lo+k%7)]))
		}
		base := BaselineEngine{}.AllPairs(sets)
		msjh := MSJHEngine{}.AllPairs(sets)
		naive := NaiveInvertedEngine{}.AllPairs(sets)
		if base.MaxAbsDiff(msjh) != 0 {
			t.Fatal("msJh disagrees with baseline")
		}
		if base.MaxAbsDiff(naive) != 0 {
			t.Fatal("naive-inverted disagrees with baseline")
		}
		for i := range sets {
			for j := i + 1; j < len(sets); j++ {
				if v := base.At(i, j); v < 0 || v > 1 {
					t.Fatalf("similarity %g outside [0, 1]", v)
				}
			}
		}
	})
}

// FuzzDictRoundTrip: interning arbitrary byte strings round-trips.
func FuzzDictRoundTrip(f *testing.F) {
	f.Add([]byte("hello"), []byte("world"))
	f.Add([]byte{}, []byte{0xff, 0x00})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		d := NewDict()
		ia := d.Intern(string(a))
		ib := d.Intern(string(b))
		if !bytes.Equal([]byte(d.Word(ia)), a) || !bytes.Equal([]byte(d.Word(ib)), b) {
			t.Fatal("round trip failed")
		}
		if bytes.Equal(a, b) != (ia == ib) {
			t.Fatal("identity broken")
		}
	})
}
