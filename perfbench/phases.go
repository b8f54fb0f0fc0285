package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"time"

	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/store"
)

type opKind int

const (
	opRead  opKind = iota
	opWrite        // insert a fresh photo, read it back, then delete a victim
	opSave         // POST /v1/snapshot/save
)

// op is one scheduled operation of a phase.
type op struct {
	kind   opKind
	probe  int    // opRead: index into the run's probes
	fresh  int    // opWrite: index into the run's fresh photos
	victim uint64 // opWrite: corpus photo deleted after the insert; 0 for none
}

// phase is one open-loop stretch at a fixed offered rate.
type phase struct {
	name     string
	rate     float64
	schedule []time.Duration
	ops      []op
}

// target is the surface the load generator drives: a fastd or the router
// over HTTP, or the router in-process. name prefixes the root spans.
type target struct {
	name   string
	query  func(ctx context.Context, img *simimg.Image) ([]core.SearchResult, error)
	insert func(ctx context.Context, p *simimg.Photo) error
	delete func(ctx context.Context, id uint64) error
	save   func(ctx context.Context) (store.WriteResult, error)
}

var errPartial = errors.New("partial answer")

func httpTarget(s *system, topK int) target {
	return target{
		name: "client",
		query: func(ctx context.Context, img *simimg.Image) ([]core.SearchResult, error) {
			res, resp, err := s.front.QueryFull(ctx, img, topK)
			if err == nil && resp.Partial {
				err = errPartial
			}
			return res, err
		},
		insert: func(ctx context.Context, p *simimg.Photo) error { return s.front.Insert(ctx, p.ID, p.Img) },
		delete: func(ctx context.Context, id uint64) error { return s.front.Delete(ctx, id) },
		save:   func(ctx context.Context) (store.WriteResult, error) { return s.front.SnapshotSave(ctx) },
	}
}

// routerTarget calls the router in-process, so that the spans of its
// per-shard calls share the request's ID.
func routerTarget(s *system, topK int) target {
	return target{
		name: "router",
		query: func(ctx context.Context, img *simimg.Image) ([]core.SearchResult, error) {
			res, meta, err := s.rt.Query(ctx, img, topK)
			if err == nil && meta.Partial {
				err = errPartial
			}
			return res, err
		},
		insert: func(ctx context.Context, p *simimg.Photo) error { return s.rt.Insert(ctx, p.ID, p.Img) },
		delete: func(ctx context.Context, id uint64) error { return s.rt.Delete(ctx, id) },
	}
}

// phaseResult is what one executed phase measured.
type phaseResult struct {
	phase     *phase
	samples   []sample
	late      []time.Duration
	answers   [][]core.SearchResult // by op; nil unless a read succeeded
	inserts   []time.Duration       // latency of each acknowledged insert, from its due time
	added     []*simimg.Photo       // acknowledged inserts, whatever happened to their read-back
	deleted   []uint64              // acknowledged deletes
	saves     []store.WriteResult
	saveTimes []time.Duration
	unread    []*simimg.Photo // acknowledged inserts whose read-back answered nothing; the gate confirms each
	attempted int             // requests sent, including read-backs and deletes
	failed    int             // requests failed, refused or timed out, plus read-your-write misses
}

// readLatencies returns the latency in ms of every read whose op index
// has the given parity (any, for parity < 0); a failed read counts as
// infinitely slow when withFailures is set and is skipped otherwise.
func (r *phaseResult) readLatencies(withFailures bool, parity int) []float64 {
	var out []float64
	for i, o := range r.phase.ops {
		if o.kind != opRead || (parity >= 0 && i%2 != parity) {
			continue
		}
		switch s := r.samples[i]; {
		case s.Err == nil:
			out = append(out, float64(s.latency())/float64(time.Millisecond))
		case withFailures:
			out = append(out, math.Inf(1))
		}
	}
	return out
}

// clean reports that no request failed and the backlog did not grow by
// more than slack.
func (r *phaseResult) clean(slack time.Duration) bool {
	return r.failed == 0 && !backlogGrew(r.samples, slack)
}

// execPhase runs ph open-loop against tgt through conns request
// goroutines. With tr non-nil every other operation (the even ones) is
// traced, so traced and untraced requests share one schedule, one system
// and one load, and their latencies compare directly.
func execPhase(ph *phase, tgt target, in *inputs, conns int, tr *tracer) *phaseResult {
	r := &phaseResult{
		phase:   ph,
		answers: make([][]core.SearchResult, len(ph.ops)),
	}
	type tally struct {
		attempted, failed int
		insert            time.Duration
		acked, deleted    bool
		unread            bool
		save              *store.WriteResult
		saveTime          time.Duration
	}
	tallies := make([]tally, len(ph.ops))
	call := func(i int, name string, f func(ctx context.Context) error) error {
		t, ctx, end := &tallies[i], context.Background(), func() {}
		if i%2 == 0 {
			ctx, end = tr.root(ctx, tgt.name+"."+name)
		}
		err := f(ctx)
		end()
		t.attempted++
		if err != nil {
			t.failed++
		}
		return err
	}
	r.samples, r.late = runOpenLoop(ph.schedule, conns, func(i int, due time.Time) error {
		o, t := ph.ops[i], &tallies[i]
		switch o.kind {
		case opRead:
			return call(i, "query", func(ctx context.Context) error {
				res, err := tgt.query(ctx, in.probes[o.probe].img)
				r.answers[i] = res
				return err
			})
		case opWrite:
			photo := in.fresh[o.fresh]
			if err := call(i, "insert", func(ctx context.Context) error { return tgt.insert(ctx, photo) }); err != nil {
				return err
			}
			t.insert, t.acked = time.Since(due), true
			if err := call(i, "query", func(ctx context.Context) (err error) {
				t.unread, err = readBack(ctx, tgt, photo)
				return err
			}); err != nil {
				return err
			}
			if o.victim == 0 {
				return nil
			}
			err := call(i, "delete", func(ctx context.Context) error { return tgt.delete(ctx, o.victim) })
			t.deleted = err == nil
			return err
		case opSave:
			return call(i, "snapshot_save", func(ctx context.Context) error {
				t0 := time.Now()
				res, err := tgt.save(ctx)
				t.save, t.saveTime = &res, time.Since(t0)
				return err
			})
		}
		return fmt.Errorf("unknown op kind %d", o.kind)
	})
	logged := 0
	for i, t := range tallies {
		r.attempted += t.attempted
		r.failed += t.failed
		if err := r.samples[i].Err; err != nil && logged < 5 {
			logged++
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", ph.name, i, err)
		}
		// An acknowledged insert is in the system even when its read-back
		// or the delete after it failed, so the ground truth takes it.
		if t.acked {
			r.inserts = append(r.inserts, t.insert)
			r.added = append(r.added, in.fresh[ph.ops[i].fresh])
		}
		if t.deleted {
			r.deleted = append(r.deleted, ph.ops[i].victim)
		}
		if t.unread {
			r.unread = append(r.unread, in.fresh[ph.ops[i].fresh])
		}
		if t.save != nil && r.samples[i].Err == nil {
			r.saves = append(r.saves, *t.save)
			r.saveTimes = append(r.saveTimes, t.saveTime)
		}
	}
	return r
}

// readBack checks that an acknowledged insert is searchable: its own
// raster finds it. A photo whose summary is empty (featureless) cannot
// be found, and the engine answers every featureless probe with nothing;
// so an empty answer is reported as unread, for the gate to confirm
// against the oracle, while a non-empty answer without the photo is a
// miss at once.
func readBack(ctx context.Context, tgt target, p *simimg.Photo) (unread bool, err error) {
	res, err := tgt.query(ctx, p.Img)
	switch {
	case err != nil:
		return false, err
	case len(res) == 0:
		return true, nil
	case !slices.ContainsFunc(res, func(r core.SearchResult) bool { return r.ID == p.ID }):
		return false, fmt.Errorf("read-your-write miss: photo %d not found by its own raster", p.ID)
	}
	return false, nil
}

// sameAnswer reports whether two answers are byte-identical: same IDs in
// the same order with bit-identical scores.
func sameAnswer(a, b []core.SearchResult) bool {
	return slices.EqualFunc(a, b, func(x, y core.SearchResult) bool {
		return x.ID == y.ID && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}

// opStream draws a workload's operations in a fixed order, so a phase's
// ops depend only on the seed and the phases before it. Reads take the
// next never-used probe or, with a pool, a Zipf draw from it; writes take
// the next fresh photo and, while victims remain, delete the next one.
type opStream struct {
	spec      *workloadSpec
	rng       *rand.Rand
	zipf      *zipf // nil: every read takes a new probe
	nextProbe int
	writes    int
	victims   []uint64
	sent      int
}

// take returns the next n operations.
func (s *opStream) take(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		s.sent++
		switch {
		case s.spec.SaveEvery > 0 && s.sent%s.spec.SaveEvery == 0:
			ops[i] = op{kind: opSave}
		case s.rng.Float64() < s.spec.WriteFrac:
			ops[i] = op{kind: opWrite, fresh: s.writes}
			s.writes++
			if len(s.victims) > 0 {
				ops[i].victim, s.victims = s.victims[0], s.victims[1:]
			}
		case s.zipf != nil:
			ops[i] = op{kind: opRead, probe: s.zipf.next()}
		default:
			ops[i] = op{kind: opRead, probe: s.nextProbe}
			s.nextProbe++
		}
	}
	return ops
}
