package main

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/simimg"
)

func TestPoissonScheduleIsDeterministic(t *testing.T) {
	a := poissonSchedule(42, 100, 5000)
	b := poissonSchedule(42, 100, 5000)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if slices.Equal(a, poissonSchedule(43, 100, 5000)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 5000 {
		t.Fatalf("got %d arrivals, want 5000", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, a[i], i-1, a[i-1])
		}
	}
	// 5000 exponential gaps at 100/s span about 50 s; the standard
	// deviation of the sum is 50/sqrt(5000) ≈ 0.7 s.
	if span := a[len(a)-1].Seconds(); math.Abs(span-50) > 3 {
		t.Fatalf("5000 arrivals at 100/s span %.2fs, want about 50s", span)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {99, 4.96}, {100, 5},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("one sample: got %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("no samples should give NaN")
	}
	inf := math.Inf(1)
	if got := percentile([]float64{1, 2, inf, inf}, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 over failures: got %v, want +Inf", got)
	}
	if got := percentile([]float64{1, 2, 3, inf}, 50); got != 2.5 {
		t.Errorf("p50 with one failure: got %v, want 2.5", got)
	}
}

func TestMaxRateAtSLO(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		name  string
		rungs []rung
		want  float64
	}{
		{"crossing between rungs", []rung{{100, 20, true}, {200, 40, true}, {300, 80, true}}, 250},
		{"top rung meets", []rung{{100, 20, true}, {200, 40, true}}, 200},
		{"a lower stall does not cap", []rung{{100, 90, true}, {200, 40, true}, {300, 80, true}}, 250},
		{"first rung misses: line from the origin", []rung{{100, 120, true}, {200, 300, true}}, 50},
		{"backlog grew under the limit", []rung{{100, 20, true}, {200, 40, false}}, 100},
		{"failures above the p99", []rung{{100, 20, true}, {200, inf, false}}, 100},
		{"unclean rung above the limit still crosses", []rung{{100, 20, true}, {200, 100, false}}, 150},
		{"no rungs", nil, 0},
	} {
		if got := maxRateAtSLO(c.rungs, 60); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBacklogGrew(t *testing.T) {
	mk := func(n int, wait func(i int) time.Duration) []sample {
		ss := make([]sample, n)
		for i := range ss {
			due := time.Duration(i) * 5 * time.Millisecond
			ss[i] = sample{Due: due, Start: due + wait(i), End: due + wait(i) + 4*time.Millisecond}
		}
		return ss
	}
	slack := 20 * time.Millisecond
	steady := mk(300, func(i int) time.Duration { return time.Duration(i%3) * time.Millisecond })
	if backlogGrew(steady, slack) {
		t.Error("steady waits reported as a growing backlog")
	}
	growing := mk(300, func(i int) time.Duration { return time.Duration(i) * 500 * time.Microsecond })
	if !backlogGrew(growing, slack) {
		t.Error("linearly growing waits not reported")
	}
	stall := mk(300, func(i int) time.Duration {
		if i >= 280 && i < 290 {
			return 200 * time.Millisecond
		}
		return time.Millisecond
	})
	if backlogGrew(stall, slack) {
		t.Error("one short stall reported as a growing backlog")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		// Overlapping children (a fan-out) count once: [10,60].
		{ID: 2, Parent: 1, Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Start: ms(30), End: ms(60)},
		// A child running past its parent is clipped to it: [90,100].
		{ID: 4, Parent: 1, Start: ms(90), End: ms(120)},
		{ID: 5, Parent: 2, Start: ms(15), End: ms(25)},
		{ID: 6, Parent: 2, Start: ms(25), End: ms(35)},
		// A second request's root with no children.
		{ID: 7, Name: "root", Start: ms(200), End: ms(220)},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]time.Duration{1: ms(40), 2: ms(10), 3: ms(30), 4: ms(30), 5: ms(10), 7: ms(20)} {
		if self[id] != want {
			t.Errorf("span %d: self %v, want %v", id, self[id], want)
		}
	}
	// Roots last 120 ms together, 60 of which no child covers.
	if got := unaccountedFrac(spans); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("unaccountedFrac = %v, want 0.5", got)
	}
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	ref := spanRef{id: 17, req: 3}
	got, ok := parseSpanHeader(formatSpanHeader(ref))
	if !ok || got != ref {
		t.Fatalf("round trip gave %+v, %v", got, ok)
	}
	for _, bad := range []string{"", "3", "3.x", "a.1"} {
		if _, ok := parseSpanHeader(bad); ok {
			t.Errorf("parseSpanHeader(%q) accepted a malformed header", bad)
		}
	}
}

func TestRunOpenLoopKeepsToTheSchedule(t *testing.T) {
	// 300 sends at 2000/s through two workers that each take 5 ms: the
	// offered load is five times capacity, so the generator must still send
	// on schedule while the backlog, and every latency after the first few,
	// grows.
	schedule := poissonSchedule(7, 2000, 300)
	var calls [300]atomic.Int32
	samples, late := runOpenLoop(schedule, 2, func(i int, due time.Time) error {
		calls[i].Add(1)
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("op %d ran %d times", i, n)
		}
		s := samples[i]
		if s.Due != schedule[i] || s.Start < s.Due || s.End < s.Start {
			t.Fatalf("op %d: due %v start %v end %v, scheduled %v", i, s.Due, s.Start, s.End, schedule[i])
		}
	}
	if p50 := percentile(millis(late), 50); p50 > 20 {
		t.Errorf("dispatcher median lateness %.1f ms: it waited on the workers", p50)
	}
	if !backlogGrew(samples, 20*time.Millisecond) {
		t.Error("a five-fold overload did not register as a growing backlog")
	}
	if first, last := samples[0].latency(), samples[len(samples)-1].latency(); last < 10*first {
		t.Errorf("latency from due time did not grow under overload: first %v, last %v", first, last)
	}
}

func TestAcknowledgedWritesReachTheGroundTruth(t *testing.T) {
	// Two writes, each an insert, its read-back and a delete. The first
	// insert is acknowledged but its read-back fails, so the op fails
	// before its delete; the second succeeds throughout. Both inserts are
	// in the system, so both must be handed to the gate and timed.
	in := &inputs{fresh: []*simimg.Photo{
		{ID: freshIDBase, Img: simimg.New(8, 8)},
		{ID: freshIDBase + 1, Img: simimg.New(8, 8)},
	}}
	errReadBack := errors.New("read-back timed out")
	var deletes atomic.Int32
	tgt := target{
		name:   "fake",
		insert: func(context.Context, *simimg.Photo) error { return nil },
		query: func(_ context.Context, img *simimg.Image) ([]core.SearchResult, error) {
			if img == in.fresh[0].Img {
				return nil, errReadBack
			}
			return []core.SearchResult{{ID: in.fresh[1].ID, Score: 1}}, nil
		},
		delete: func(context.Context, uint64) error { deletes.Add(1); return nil },
	}
	ph := &phase{
		name:     "writes",
		rate:     1000,
		schedule: []time.Duration{0, time.Millisecond},
		ops:      []op{{kind: opWrite, fresh: 0, victim: 7}, {kind: opWrite, fresh: 1, victim: 8}},
	}
	r := execPhase(ph, tgt, in, 1, nil)
	if !errors.Is(r.samples[0].Err, errReadBack) || r.samples[1].Err != nil {
		t.Fatalf("op errors %v, %v; want the read-back error, then none", r.samples[0].Err, r.samples[1].Err)
	}
	if len(r.added) != 2 || r.added[0] != in.fresh[0] || r.added[1] != in.fresh[1] {
		t.Errorf("added %v, want both acknowledged inserts", r.added)
	}
	if len(r.inserts) != 2 {
		t.Errorf("%d insert latencies, want 2", len(r.inserts))
	}
	if !slices.Equal(r.deleted, []uint64{8}) || deletes.Load() != 1 {
		t.Errorf("deleted %v after %d delete calls, want only victim 8", r.deleted, deletes.Load())
	}
	if r.attempted != 5 || r.failed != 1 {
		t.Errorf("attempted %d, failed %d; want 5 and 1", r.attempted, r.failed)
	}
}
