package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share Req, the ID of its root span; Parent is 0 for a root. Start and
// End are offsets from the tracer's epoch.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"`
	Req    uint64        `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spanRef identifies an open span; it travels in a context within the
// process and in the spanHeader across HTTP.
type spanRef struct{ id, req uint64 }

type spanKey struct{}

// spanHeader carries "<req>.<id>" of the calling span to the server side.
const spanHeader = "X-Perfbench-Span"

// tracer keeps spans in memory until the run ends. Only requests that
// open a root span are traced: every hook below records a child span
// only under a parent, so an untraced request costs each hook one
// context lookup. A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// root opens the root span of a traced request and returns the context
// for its callees and the function that closes the span.
func (t *tracer) root(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	ref, end := t.open(spanRef{}, name)
	return context.WithValue(ctx, spanKey{}, ref), end
}

// child opens a span under the one ctx carries; without one it records
// nothing.
func (t *tracer) child(ctx context.Context, name string) (context.Context, func()) {
	parent, ok := ctx.Value(spanKey{}).(spanRef)
	if t == nil || !ok {
		return ctx, func() {}
	}
	ref, end := t.open(parent, name)
	return context.WithValue(ctx, spanKey{}, ref), end
}

func (t *tracer) open(parent spanRef, name string) (spanRef, func()) {
	ref := spanRef{id: t.ids.Add(1), req: parent.req}
	if ref.req == 0 {
		ref.req = ref.id
	}
	begin := time.Since(t.epoch)
	return ref, func() {
		s := span{ID: ref.id, Parent: parent.id, Req: ref.req, Name: name, Start: begin, End: time.Since(t.epoch)}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// handler wraps a server's handler in a "server.handler" span whose
// parent is named by the caller's spanHeader.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		_, end := t.open(parent, name)
		h.ServeHTTP(w, r)
		end()
	})
}

func parseSpanHeader(v string) (spanRef, bool) {
	req, id, ok := strings.Cut(v, ".")
	if !ok {
		return spanRef{}, false
	}
	r, err1 := strconv.ParseUint(req, 10, 64)
	i, err2 := strconv.ParseUint(id, 10, 64)
	return spanRef{id: i, req: r}, err1 == nil && err2 == nil
}

func formatSpanHeader(ref spanRef) string { return fmt.Sprintf("%d.%d", ref.req, ref.id) }

// selfTimes maps each span ID to its self time: its duration minus the
// part of its interval that its children cover. Overlapping children
// (parallel fan-out) count once.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// unaccountedFrac is the share of root-span time that no child span
// covers, summed over every root.
func unaccountedFrac(spans []span) float64 {
	self := selfTimes(spans)
	var rootSelf, rootDur time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			rootSelf += self[s.ID]
			rootDur += s.dur()
		}
	}
	if rootDur == 0 {
		return 0
	}
	return float64(rootSelf) / float64(rootDur)
}
