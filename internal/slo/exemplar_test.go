package slo

import (
	"testing"
	"time"
)

func TestExemplarJoinsQuantileBucket(t *testing.T) {
	tr := NewTracker(map[string]Objective{ClassSearchMiss: {Threshold: time.Second}}, Options{})
	// One slow observation dominates the tail; its exemplar must surface
	// at p99 (and, with a single observation, every quantile).
	d := 40 * time.Millisecond
	tr.Record(ClassSearchMiss, d, OutcomeOK)
	tr.NoteExemplar(ClassSearchMiss, d, "trace-slow")

	cs, ok := tr.Snapshot().Class(ClassSearchMiss)
	if !ok {
		t.Fatal("class missing from snapshot")
	}
	if got := cs.Total.Exemplars["p99"]; got != "trace-slow" {
		t.Fatalf("total p99 exemplar = %q, want trace-slow (exemplars: %v)", got, cs.Total.Exemplars)
	}
	if len(cs.Windows) == 0 || cs.Windows[0].Exemplars["p99"] != "trace-slow" {
		t.Fatalf("window p99 exemplar missing: %+v", cs.Windows)
	}
}

// The sampler measures its duration slightly after the tracker does, so
// its note may exceed the recorded observation. A note at the upper
// boundary of the observation's bucket still lands in that bucket
// (buckets are closed above) and must resolve; a note one bucket up is
// TestExemplarNextBucketFallback's case.
func TestExemplarNeighbourBucket(t *testing.T) {
	tr := NewTracker(map[string]Objective{ClassSearchMiss: {Threshold: time.Second}}, Options{})
	d := 10 * time.Millisecond
	tr.Record(ClassSearchMiss, d, OutcomeOK)
	tr.NoteExemplar(ClassSearchMiss, BucketUpper(BucketIndex(d)), "trace-next") // d's own bucket

	cs, _ := tr.Snapshot().Class(ClassSearchMiss)
	if got := cs.Total.Exemplars["p99"]; got != "trace-next" {
		t.Fatalf("neighbour exemplar not found: %v", cs.Total.Exemplars)
	}
}

func TestNoteExemplarIgnoresUnknownAndNil(t *testing.T) {
	var nilTr *Tracker
	nilTr.NoteExemplar(ClassSearchMiss, time.Millisecond, "x") // must not panic

	tr := NewTracker(map[string]Objective{ClassSearchHit: {}}, Options{})
	tr.NoteExemplar("no-such-class", time.Millisecond, "x")
	tr.NoteExemplar(ClassSearchHit, time.Millisecond, "") // empty ID ignored
	tr.Record(ClassSearchHit, time.Millisecond, OutcomeOK)
	cs, _ := tr.Snapshot().Class(ClassSearchHit)
	if cs.Total.Exemplars != nil {
		t.Fatalf("unexpected exemplars: %v", cs.Total.Exemplars)
	}
}

func TestQuantileBucketMatchesQuantile(t *testing.T) {
	var c Counts
	if c.QuantileBucket(0.5) != -1 {
		t.Fatal("empty counts must report bucket -1")
	}
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond, 7 * time.Millisecond, 2 * time.Second} {
		c.Buckets[BucketIndex(d)]++
		c.Total++
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
		b := c.QuantileBucket(p)
		if got, want := c.Quantile(p), BucketUpper(b); got != want {
			t.Fatalf("p=%v: Quantile=%v but BucketUpper(QuantileBucket)=%v", p, got, want)
		}
	}
}

// A bucket's upper boundary lands in that same bucket (buckets are
// closed above), so the neighbour fallback is exercised with a note one
// nanosecond past it, the first duration of the next bucket.
func TestExemplarNextBucketFallback(t *testing.T) {
	tr := NewTracker(map[string]Objective{ClassSearchMiss: {Threshold: time.Second}}, Options{})
	d := 10 * time.Millisecond
	tr.Record(ClassSearchMiss, d, OutcomeOK)
	next := BucketUpper(BucketIndex(d)) + time.Nanosecond
	if got, want := BucketIndex(next), BucketIndex(d)+1; got != want {
		t.Fatalf("note lands in bucket %d, want %d", got, want)
	}
	tr.NoteExemplar(ClassSearchMiss, next, "trace-next")

	cs, _ := tr.Snapshot().Class(ClassSearchMiss)
	if got := cs.Total.Exemplars["p99"]; got != "trace-next" {
		t.Fatalf("neighbour exemplar not found: %v", cs.Total.Exemplars)
	}
}
