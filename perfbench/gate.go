package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"time"

	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/simimg"
)

// checker holds what the correctness gates compare against: the
// generator's ground truth as the run's writes change it and, for the
// routed workload, a single-node union oracle that receives the same
// writes in the same order.
type checker struct {
	b        *bench
	sys      *system
	oracle   *core.Engine
	scene    map[uint64]simimg.SceneID // live photo → scene
	perScene map[simimg.SceneID]int    // live photos per scene
}

func newChecker(b *bench, sys *system) *checker {
	c := &checker{b: b, sys: sys, scene: map[uint64]simimg.SceneID{}, perScene: map[simimg.SceneID]int{}}
	for _, p := range b.ds.Photos {
		c.scene[p.ID] = p.Scene
		c.perScene[p.Scene]++
	}
	return c
}

// gate runs after timed phases: it applies their acknowledged writes to
// the ground truth, confirms their empty read-backs, then checks the
// workload's answers. A divergence is recorded as a correctness failure.
// It returns the scene recall of the answers it checked.
func (c *checker) gate(phases ...*phaseResult) ([]float64, error) {
	var added []*simimg.Photo
	var deleted []uint64
	for _, r := range phases {
		// Victims are corpus photos and inserts are fresh ones, so the
		// order between the two does not matter.
		for _, p := range r.added {
			c.scene[p.ID] = p.Scene
			c.perScene[p.Scene]++
		}
		for _, id := range r.deleted {
			c.perScene[c.scene[id]]--
			delete(c.scene, id)
		}
		added = append(added, r.added...)
		deleted = append(deleted, r.deleted...)
	}
	if c.sys.rt != nil {
		if err := c.syncOracle(added, deleted); err != nil {
			return nil, err
		}
	} else {
		c.oracle = c.sys.eng
	}
	for _, r := range phases {
		c.confirmUnread(r)
	}
	switch {
	case c.sys.rt != nil:
		return c.gateRouted(phases)
	case c.sys.watermark > 0:
		return c.gatePool()
	default:
		return c.gateServed(phases)
	}
}

// confirmUnread checks each insert whose read-back answered nothing: the
// oracle must answer its raster with nothing too, which holds exactly
// when the photo's summary is empty. Otherwise the acknowledged insert
// was not searchable, a read-your-write miss.
func (c *checker) confirmUnread(r *phaseResult) {
	for _, p := range r.unread {
		res, err := c.oracle.QueryUncached(p.Img, topK)
		if err != nil || len(res) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: read-your-write miss: photo %d answered nothing; the oracle finds %d hits (err %v)\n", p.ID, len(res), err)
			r.failed++
		}
	}
}

// gateServed checks every answer the phases served against
// Engine.QueryUncached on the same probe.
func (c *checker) gateServed(phases []*phaseResult) ([]float64, error) {
	type check struct {
		probe  int
		served []core.SearchResult
	}
	var checks []check
	for _, r := range phases {
		for i, o := range r.phase.ops {
			if o.kind == opRead && r.samples[i].Err == nil {
				checks = append(checks, check{o.probe, r.answers[i]})
			}
		}
	}
	want := make([][]core.SearchResult, len(checks))
	errs := make([]error, len(checks))
	parallel(len(checks), func(i int) {
		want[i], errs[i] = c.sys.eng.QueryUncached(c.b.in.probes[checks[i].probe].img, topK)
	})
	recall := make([]float64, len(checks))
	for i, ch := range checks {
		if errs[i] != nil {
			return nil, fmt.Errorf("oracle query: %w", errs[i])
		}
		if !sameAnswer(ch.served, want[i]) {
			c.b.fail("probe %d: served answer differs from QueryUncached", ch.probe)
		}
		recall[i] = c.recall(want[i], c.b.in.probes[ch.probe].scene)
	}
	return recall, nil
}

// gatePool waits for the cold-tier compactor to go idle, then checks the
// cached HTTP answer of every pool probe against Engine.QueryUncached.
func (c *checker) gatePool() ([]float64, error) {
	if err := c.sys.waitCompactor(); err != nil {
		return nil, err
	}
	return c.compare(0, len(c.b.in.probes), c.sys.eng)
}

// syncOracle lets the replicas drain and brings the union oracle up to
// the same writes.
func (c *checker) syncOracle(added []*simimg.Photo, deleted []uint64) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.sys.rt.QuiesceReplicas(ctx); err != nil {
		return fmt.Errorf("quiesce replicas: %w", err)
	}
	if c.oracle == nil {
		o, err := core.ReadEngine(bytes.NewReader(c.sys.union))
		if err != nil {
			return err
		}
		c.oracle = o
	}
	if len(added) > 0 {
		if _, err := c.oracle.InsertBatch(added, 0); err != nil {
			return fmt.Errorf("oracle insert: %w", err)
		}
	}
	for _, id := range deleted {
		if err := c.oracle.Delete(id); err != nil {
			return fmt.Errorf("oracle delete: %w", err)
		}
	}
	return nil
}

// gateRouted compares routed answers for the first gateProbes probes of
// the phases with the union oracle's.
func (c *checker) gateRouted(phases []*phaseResult) ([]float64, error) {
	first := -1
	for _, r := range phases {
		for _, o := range r.phase.ops {
			if o.kind == opRead && first < 0 {
				first = o.probe
			}
		}
	}
	if first < 0 {
		return nil, nil
	}
	n := min(gateProbes, len(c.b.in.probes)-first)
	return c.compare(first, n, c.oracle)
}

// compare sends probes base … base+n-1 through the front end and checks
// each answer against oracle.QueryUncached.
func (c *checker) compare(base, n int, oracle *core.Engine) ([]float64, error) {
	tgt := httpTarget(c.sys, topK)
	got := make([][]core.SearchResult, n)
	want := make([][]core.SearchResult, n)
	errs := make([]error, n)
	parallel(n, func(i int) {
		pr := c.b.in.probes[base+i]
		if got[i], errs[i] = tgt.query(context.Background(), pr.img); errs[i] == nil {
			want[i], errs[i] = oracle.QueryUncached(pr.img, topK)
		}
	})
	recall := make([]float64, n)
	for i := range got {
		if errs[i] != nil {
			return nil, fmt.Errorf("gate query: %w", errs[i])
		}
		if !sameAnswer(got[i], want[i]) {
			c.b.fail("probe %d: answer differs from the oracle", base+i)
		}
		recall[i] = c.recall(want[i], c.b.in.probes[base+i].scene)
	}
	return recall, nil
}

// recall is scene recall at k: the share of the answer's first k slots
// (or of the scene's live photos, when fewer) that show the probe's scene.
func (c *checker) recall(answer []core.SearchResult, scene simimg.SceneID) float64 {
	want := min(topK, c.perScene[scene])
	if want == 0 {
		return 1
	}
	hits := 0
	for _, r := range answer {
		if s, ok := c.scene[r.ID]; ok && s == scene {
			hits++
		}
	}
	return float64(min(hits, want)) / float64(want)
}

// ingestProbe inserts the fresh photos from index first on, one at a
// time (closed loop), timing each acknowledgement and reading each back
// by its own raster. Run it after the gates: its writes are not in the
// ground truth.
func (c *checker) ingestProbe(first int) *phaseResult {
	tgt := httpTarget(c.sys, topK)
	ctx := context.Background()
	r := &phaseResult{}
	for i := first; i < len(c.b.in.fresh); i++ {
		p := c.b.in.fresh[i]
		r.attempted += 2
		t0 := time.Now()
		if err := tgt.insert(ctx, p); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: ingest probe: %v\n", err)
			r.failed += 2
			continue
		}
		r.inserts = append(r.inserts, time.Since(t0))
		unread, err := readBack(ctx, tgt, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: ingest probe: %v\n", err)
			r.failed++
		}
		if unread {
			r.unread = append(r.unread, p)
		}
	}
	c.confirmUnread(r)
	return r
}

// answerDigest is the SHA-256 of the first n read answers of a phase, in
// schedule order: per answer its length, then each hit's ID and score
// bits, little-endian.
func answerDigest(r *phaseResult, n int) string {
	h := sha256.New()
	var buf [8]byte
	for i, o := range r.phase.ops {
		if o.kind != opRead || n == 0 {
			continue
		}
		n--
		binary.LittleEndian.PutUint64(buf[:], uint64(len(r.answers[i])))
		h.Write(buf[:])
		for _, a := range r.answers[i] {
			binary.LittleEndian.PutUint64(buf[:], a.ID)
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(a.Score))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
