package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fastrepro/fast/internal/chunk"
	"github.com/fastrepro/fast/internal/client"
	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/placement"
	"github.com/fastrepro/fast/internal/replica"
	"github.com/fastrepro/fast/internal/router"
	"github.com/fastrepro/fast/internal/server"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/store"
)

// Daemon defaults (cmd/fastd, cmd/fastrouter) every workload runs at.
const (
	coalesceWindow = 2 * time.Millisecond
	summaryCache   = 4096
	resultCache    = 8192
	routerRetries  = 1
	routerBackoff  = 50 * time.Millisecond
	clientTimeout  = 30 * time.Second
)

// snapshotCDC is the chunk geometry of the reuse-churn snapshot store.
// With the cold tier attached a snapshot holds only the small hot tier,
// which the 64 KB production average would cut into too few chunks for
// reuse to show.
var snapshotCDC = chunk.Config{MinSize: 1 << 10, AvgSize: 8 << 10, MaxSize: 64 << 10}

// httpNode is one in-process HTTP server on a loopback port.
type httpNode struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*httpNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &httpNode{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return n, nil
}

// close drains the server and waits for its accept loop to exit.
func (n *httpNode) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		n.srv.Close()
	}
	<-n.done
}

// countingTransport counts the body bytes of /v1/query requests and,
// while tracing, opens an "http.transport" span per round trip (closed
// when the response body is consumed) and names it to the server in
// spanHeader.
type countingTransport struct {
	base       *http.Transport
	tr         *tracer
	queryBytes atomic.Int64
	queries    atomic.Int64
}

func newTransport(maxConns int, tr *tracer) *countingTransport {
	return &countingTransport{
		base: &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: max(maxConns, 8), IdleConnTimeout: time.Minute},
		tr:   tr,
	}
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/v1/query" {
		c.queries.Add(1)
		c.queryBytes.Add(r.ContentLength)
	}
	parent, ok := r.Context().Value(spanKey{}).(spanRef)
	if !ok || c.tr == nil {
		return c.base.RoundTrip(r)
	}
	ref, end := c.tr.open(parent, "http.transport")
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, formatSpanHeader(ref))
	resp, err := c.base.RoundTrip(r)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &endOnEOF{ReadCloser: resp.Body, end: end}
	return resp, nil
}

// endOnEOF closes a span when its body is fully read or closed.
type endOnEOF struct {
	io.ReadCloser
	end  func()
	once sync.Once
}

func (b *endOnEOF) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *endOnEOF) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// newClient returns a client for url with its own counting transport.
func newClient(url string, maxConns, retries int, tr *tracer) (*client.Client, *countingTransport) {
	t := newTransport(maxConns, tr)
	c := client.New(url,
		client.WithHTTPClient(&http.Client{Transport: t}),
		client.WithTimeout(clientTimeout),
		client.WithRetries(retries, routerBackoff))
	return c, t
}

// shard is one fastd of the routed cluster.
type shard struct {
	eng *core.Engine
	srv *server.Server
	c   *client.Client
	tr  *countingTransport
}

// system is one booted instance of a workload's serving stack.
type system struct {
	front   *client.Client // what the load generator drives: fastd or the router
	frontTr *countingTransport

	// Single node (distinct-probes, reuse-churn).
	eng       *core.Engine
	srv       *server.Server
	watermark int // hot-tier bound; 0 without a cold tier

	// Routed cluster (routed-rf2).
	shards []shard
	rt     *router.Router
	union  []byte // the union engine the shards were cut from: the oracle's start state

	nodes []*httpNode // closed in reverse order
	dir   string
}

// setupSingle boots one fastd over a freshly built index. With
// watermark > 0 the cold tier is attached, the hot tier drained down to
// the watermark, and a chunked snapshot store configured.
func setupSingle(photos []*simimg.Photo, watermark, conns int, dir string, tr *tracer) (s *system, err error) {
	s = &system{dir: dir}
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	s.eng = core.NewEngine(core.Config{SummaryCache: summaryCache, ResultCache: resultCache})
	if _, err := s.eng.Build(photos); err != nil {
		return s, fmt.Errorf("build: %w", err)
	}
	cfg := server.Config{Engine: s.eng, Window: coalesceWindow}
	if watermark > 0 {
		if _, err := s.eng.EnableColdTier(filepath.Join(dir, "cold"), watermark, 0); err != nil {
			return s, fmt.Errorf("cold tier: %w", err)
		}
		s.watermark = watermark
		if err := os.MkdirAll(filepath.Join(dir, "snap"), 0o755); err != nil {
			return s, err
		}
		cfg.Snapshots = &store.Generations{Path: filepath.Join(dir, "snap", "index.fast"), Chunked: true, CDC: snapshotCDC}
		if err := s.waitCompactor(); err != nil {
			return s, err
		}
	}
	if s.srv, err = server.New(cfg); err != nil {
		return s, err
	}
	node, err := listen(tr.handler("server.handler", s.srv.Handler()))
	if err != nil {
		return s, err
	}
	s.nodes = append(s.nodes, node)
	s.front, s.frontTr = newClient(node.url, conns, 0, tr)
	return s, s.front.Healthy(context.Background())
}

// waitCompactor blocks until the background compactor has drained the
// hot tier to the watermark and stopped migrating.
func (s *system) waitCompactor() error {
	deadline := time.Now().Add(60 * time.Second)
	last := int64(-1)
	for time.Now().Before(deadline) {
		st := s.eng.Stats().Tiered
		if st.HotEntries <= s.watermark && st.Migrations == last {
			return nil
		}
		last = st.Migrations
		time.Sleep(20 * time.Millisecond)
	}
	return errors.New("cold tier compactor did not settle within 60s")
}

// setupRouted boots a cluster the way fastd -shard-index and fastrouter
// do: a union index is built once, every shard restores its serialization
// and drops what the ring places elsewhere, and the router fans out
// round-robin over the replica sets. Group expansion is off, as shard
// mode forces it. With tr non-nil the router's backends are wrapped in
// timing spans, for in-process traced calls.
func setupRouted(photos []*simimg.Photo, nShards, replicas, conns int, dir string, tr *tracer) (s *system, err error) {
	s = &system{dir: dir}
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	union := core.NewEngine(core.Config{GroupExpand: -1})
	if _, err := union.Build(photos); err != nil {
		return s, fmt.Errorf("build: %w", err)
	}
	var buf bytes.Buffer
	if _, err := union.WriteTo(&buf); err != nil {
		return s, err
	}
	s.union = buf.Bytes()
	ringCfg := placement.Config{Shards: nShards, VNodes: placement.DefaultVNodes}
	ring, err := placement.New(ringCfg)
	if err != nil {
		return s, err
	}
	backends := make([]router.Backend, nShards)
	for i := range backends {
		eng, err := core.ReadEngine(bytes.NewReader(s.union))
		if err != nil {
			return s, err
		}
		if _, _, err := replica.Subset(eng, ring, replicas, i); err != nil {
			return s, err
		}
		eng.ConfigureCache(summaryCache, resultCache)
		srv, err := server.New(server.Config{
			Engine: eng,
			Window: coalesceWindow,
			Shard:  &server.ShardConfig{Index: i, Ring: ringCfg, Replicas: replicas},
		})
		if err != nil {
			return s, err
		}
		node, err := listen(tr.handler("server.handler", srv.Handler()))
		if err != nil {
			srv.Close()
			return s, err
		}
		s.nodes = append(s.nodes, node)
		c, t := newClient(node.url, 0, routerRetries, tr)
		s.shards = append(s.shards, shard{eng: eng, srv: srv, c: c, tr: t})
		backends[i] = router.NewClientBackend(c)
		if tr != nil {
			backends[i] = timedBackend{Backend: backends[i], tr: tr}
		}
	}
	s.rt, err = router.New(router.Config{Shards: backends, Ring: ring, Replicas: replicas, Policy: router.ReadRoundRobin})
	if err != nil {
		return s, err
	}
	node, err := listen(s.rt.Handler())
	if err != nil {
		return s, err
	}
	s.nodes = append(s.nodes, node)
	s.front, s.frontTr = newClient(node.url, conns, 0, nil)
	return s, s.front.Healthy(context.Background())
}

// close stops every server, the router's apply workers and the cold
// tier, and removes the system's files.
func (s *system) close() {
	for i := len(s.nodes) - 1; i >= 0; i-- {
		s.nodes[i].close()
	}
	if s.rt != nil {
		s.rt.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	for _, sh := range s.shards {
		sh.srv.Close()
		sh.tr.base.CloseIdleConnections()
	}
	if s.frontTr != nil {
		s.frontTr.base.CloseIdleConnections()
	}
	if s.eng != nil && s.watermark > 0 {
		if err := s.eng.CloseColdTier(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing cold tier:", err)
		}
	}
	os.RemoveAll(s.dir)
}

// timedBackend wraps one shard of the router in "shard.*" spans, so the
// per-shard calls of a routed request share its request ID.
type timedBackend struct {
	router.Backend
	tr *tracer
}

func (b timedBackend) Query(ctx context.Context, img *simimg.Image, topK int) (router.Answer, error) {
	ctx, end := b.tr.child(ctx, "shard.query")
	defer end()
	return b.Backend.Query(ctx, img, topK)
}

func (b timedBackend) Insert(ctx context.Context, id uint64, img *simimg.Image) (uint64, error) {
	ctx, end := b.tr.child(ctx, "shard.insert")
	defer end()
	return b.Backend.Insert(ctx, id, img)
}

func (b timedBackend) Delete(ctx context.Context, id uint64) (uint64, error) {
	ctx, end := b.tr.child(ctx, "shard.delete")
	defer end()
	return b.Backend.Delete(ctx, id)
}
