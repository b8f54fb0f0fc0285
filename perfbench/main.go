// Command perfbench is the serving benchmark of the FAST reproduction. It
// boots the system in-process over loopback HTTP with the same
// server.New and router.New the daemons use, drives it open-loop with
// Poisson arrivals from one process, checks every answer against an
// oracle, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced replay). The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload distinct-probes --seed 1 --seconds 20 --trace 0
//
// Workload parameters live in perfbench/workloads.json; README.md in this
// directory explains the workloads and every metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/workload"
)

// Parameters every workload shares.
const (
	configPath         = "perfbench/workloads.json"
	workDir            = ".bench_build" // scratch for indexes, snapshots and traces
	scale              = 20000          // Wuhan corpus at 1/20000 of the paper's size: 1,050 photos
	topK               = 50
	setupRepeats       = 3    // boots per untraced run; setup_s is their median
	minRefQueries      = 1000 // reads the reference phase holds at least, so ten lie beyond the p99
	rungSeconds        = 2.0  // length of one ladder rung
	sloPercentile      = 90.0 // the read-latency percentile a ladder rung must keep within slo_ms
	zipfS              = 1.0  // Zipf exponent of pool draws
	replicaFactor      = 2    // routed replica factor
	gateProbes         = 200  // routed: probes compared with the oracle per gate
	ingestProbeInserts = 100  // closed-loop inserts of the ingest probe
)

// benchConfig is perfbench/workloads.json.
type benchConfig struct {
	DefaultSeed int64                   `json:"default_seed"` // the seed answer_sha256 is recorded at
	Workloads   map[string]workloadSpec `json:"workloads"`
}

// workloadSpec fixes one workload. The system it boots follows from the
// fields: Shards > 0 is a routed cluster, HotWatermark > 0 a single node
// with the cold tier, otherwise a single all-RAM node. On the cold-tier
// node each insert is paired with the delete of a corpus photo, so the
// corpus size, and with it the hot/cold split, stays steady.
type workloadSpec struct {
	RefQPS       float64   `json:"ref_qps"`       // the reference rate the end-to-end latencies are measured at
	LadderQPS    []float64 `json:"ladder_qps"`    // ascending offered rates for serving.max_qps_at_slo
	SLOMS        float64   `json:"slo_ms"`        // read-latency limit at sloPercentile a ladder rung must meet
	WriteFrac    float64   `json:"write_frac"`    // share of operations that insert a fresh photo
	Pool         int       `json:"pool"`          // > 0: reads draw from this many probes, Zipf-skewed
	SaveEvery    int       `json:"save_every"`    // > 0: every n-th operation saves a snapshot
	HotWatermark int       `json:"hot_watermark"` // > 0: cold tier attached, hot tier bounded here
	Shards       int       `json:"shards"`        // > 0: routed cluster of this many shards
	IngestProbe  bool      `json:"ingest_probe"`  // closed-loop inserts after the gates give insert latency
	AnswerSHA256 string    `json:"answer_sha256"` // at default_seed, digest of the first minRefQueries answers
}

func loadConfig(path string) (*benchConfig, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var cfg benchConfig
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &cfg, nil
}

// metric is one reported number; n, the sample count, goes to the
// human-readable table only.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric. A layer the workload never reaches has no
// samples, and its percentile (NaN) is reported as 0.
func (r *result) set(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if n > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s has no finite value (%d samples); reporting 0\n", name, n)
		}
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, n: n}
}

func (r *result) add(p *phaseResult) {
	r.Attempted += p.attempted
	r.Failed += p.failed
}

// inputs are the generated rasters a run sends; the program under test
// receives nothing else.
type inputs struct {
	probes []probe
	fresh  []*simimg.Photo
}

// bench is one invocation.
type bench struct {
	cfg    *benchConfig
	spec   *workloadSpec
	name   string
	seed   int64
	secs   float64
	conns  int
	work   string // scratch directory inside the checkout
	ds     *workload.Dataset
	in     inputs
	ref    *phase
	ladder []*phase
	ingest int // index of the first fresh photo the ingest probe inserts
	res    *result
	errs   []string // correctness failures
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name from "+configPath)
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "length of the reference phase, the measured time of an untraced run")
		trace   = flag.Int("trace", 0, "1: traced replay reporting per-layer metrics")
	)
	flag.Parse()
	cfg, err := loadConfig(configPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	spec, ok := cfg.Workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(cfg.Workloads))
		for n := range cfg.Workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	b := &bench{
		cfg:   cfg,
		spec:  &spec,
		name:  *name,
		seed:  *seed,
		secs:  *seconds,
		conns: runtime.NumCPU(),
		work:  filepath.Join(workDir, "run-"+strconv.Itoa(os.Getpid())),
		res:   &result{Metrics: map[string]metric{}},
	}
	defer os.RemoveAll(b.work)
	if *trace == 1 {
		err = b.runTraced(filepath.Join(workDir, "traces"))
	} else {
		err = b.runUntraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.res.Correct = len(b.errs) == 0
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", e)
	}
	names := make([]string, 0, len(b.res.Metrics))
	for n := range b.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d: %d operations attempted, %d failed\n", b.name, b.seed, b.res.Attempted, b.res.Failed)
	for _, n := range names {
		m := b.res.Metrics[n]
		fmt.Printf("  %-36s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.n)
	}
	out, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !b.res.Correct {
		return 1
	}
	return 0
}

// prepare renders the corpus and plans the reference phase, which fills
// --seconds, and with withLadder the rate ladder after it, and their
// inputs.
func (b *bench) prepare(withLadder bool) error {
	sp := b.spec
	if b.secs <= 0 || sp.RefQPS <= 0 {
		return fmt.Errorf("%s: need --seconds > 0 and ref_qps > 0", b.name)
	}
	ds, err := workload.Generate(workload.Wuhan(scale))
	if err != nil {
		return err
	}
	b.ds = ds
	stream := &opStream{spec: sp, rng: rand.New(rand.NewSource(derive(b.seed, "ops")))}
	if sp.Pool > 0 {
		stream.zipf = newZipf(derive(b.seed, "zipf"), sp.Pool, zipfS)
	}
	if sp.HotWatermark > 0 {
		for _, p := range ds.Photos {
			stream.victims = append(stream.victims, p.ID)
		}
		rng := rand.New(rand.NewSource(derive(b.seed, "victims")))
		rng.Shuffle(len(stream.victims), func(i, j int) {
			stream.victims[i], stream.victims[j] = stream.victims[j], stream.victims[i]
		})
	}
	newPhase := func(name string, rate, secs float64, minReads int) *phase {
		ops := stream.take(int(math.Round(rate * secs)))
		for countReads(ops) < minReads {
			ops = append(ops, stream.take(1)...)
		}
		return &phase{name: name, rate: rate, schedule: poissonSchedule(derive(b.seed, name), rate, len(ops)), ops: ops}
	}
	// The reference phase is extended, if need be, until it holds
	// minRefQueries reads.
	b.ref = newPhase("ref", sp.RefQPS, b.secs, minRefQueries)
	if withLadder {
		for i, rate := range sp.LadderQPS {
			b.ladder = append(b.ladder, newPhase("ladder-"+strconv.Itoa(i), rate, rungSeconds, 0))
		}
	}
	if sp.Pool > 0 {
		b.in.probes, err = renderProbes(ds, sp.Pool, derive(b.seed, "pool"))
	} else {
		b.in.probes, err = renderProbes(ds, stream.nextProbe, derive(b.seed, "probes"))
	}
	if err != nil {
		return err
	}
	probeInserts := 0
	if sp.IngestProbe {
		probeInserts = ingestProbeInserts
	}
	b.in.fresh = renderFresh(ds, 0, stream.writes+probeInserts, derive(b.seed, "fresh"))
	b.ingest = stream.writes
	return nil
}

func countReads(ops []op) int {
	n := 0
	for _, o := range ops {
		if o.kind == opRead {
			n++
		}
	}
	return n
}

// setup boots the workload's system once; tr, when non-nil, wires in the
// span hooks.
func (b *bench) setup(tr *tracer, i int) (*system, error) {
	dir := filepath.Join(b.work, "sys-"+strconv.Itoa(i))
	if b.spec.Shards > 0 {
		return setupRouted(b.ds.Photos, b.spec.Shards, replicaFactor, b.conns, dir, tr)
	}
	return setupSingle(b.ds.Photos, b.spec.HotWatermark, b.conns, dir, tr)
}

// stage logs how long a step of the run took.
func stage(name string, t0 time.Time) {
	fmt.Fprintf(os.Stderr, "perfbench: %-14s %6.2fs\n", name, time.Since(t0).Seconds())
}

func (b *bench) fail(format string, args ...any) {
	b.errs = append(b.errs, fmt.Sprintf(format, args...))
}

// runUntraced measures the end-to-end metrics: set-up time over several
// boots, then latency, insert latency and recall at the reference rate,
// with the correctness gate after the timed phase.
func (b *bench) runUntraced() error {
	t0 := time.Now()
	if err := b.prepare(false); err != nil {
		return err
	}
	stage("inputs", t0)
	var sys *system
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if sys != nil {
			sys.close()
			runtime.GC()
		}
		t0 := time.Now()
		s, err := b.setup(nil, i)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		stage("setup", t0)
		sys = s
	}
	defer sys.close()
	b.res.set("setup_s", median(setups), "s", len(setups))

	chk := newChecker(b, sys)
	t0 = time.Now()
	ref := execPhase(b.ref, httpTarget(sys, topK), &b.in, b.conns, nil)
	stage("ref phase", t0)
	// Read before the gate, which on routed-rf2 builds a union oracle: the
	// high-water mark is the system's under load, not the checker's.
	rss := peakRSSMB()
	t0 = time.Now()
	recall, err := chk.gate(ref)
	if err != nil {
		return err
	}
	b.res.add(ref)
	b.checkDigest(ref)
	stage("gate", t0)
	reads := ref.readLatencies(false, -1)
	b.res.set("query_p50_ms", percentile(reads, 50), "ms", len(reads))
	inserts := b.insertLatencies(chk, ref)
	b.res.set("insert_p50_ms", percentile(inserts, 50), "ms", len(inserts))
	b.res.set("recall_at_k", mean(recall), "frac", len(recall))
	b.res.set("ok_frac", 1-float64(b.res.Failed)/float64(max(b.res.Attempted, 1)), "frac", b.res.Attempted)
	b.res.set("peak_rss_mb", rss, "MB", 1)
	return nil
}

// insertLatencies returns insert acknowledgement latencies in ms: those
// of the closed-loop insert probe, which runs after the gates, on the
// workloads that configure one, else the reference phase's writes.
func (b *bench) insertLatencies(chk *checker, ref *phaseResult) []float64 {
	if !b.spec.IngestProbe {
		return millis(ref.inserts)
	}
	t0 := time.Now()
	probe := chk.ingestProbe(b.ingest)
	b.res.add(probe)
	stage("ingest probe", t0)
	return millis(probe.inserts)
}

// runLadder offers each ladder rate in turn and reports the tail and
// capacity figures: the reference phase's read p90 and p99, the insert
// p90, and the highest offered rate whose read latency at sloPercentile
// meets slo_ms.
func (b *bench) runLadder(sys *system, chk *checker, ref *phaseResult) error {
	var ladder []*phaseResult
	t0 := time.Now()
	for _, ph := range b.ladder {
		ladder = append(ladder, execPhase(ph, httpTarget(sys, topK), &b.in, b.conns, nil))
	}
	stage("ladder", t0)
	if _, err := chk.gate(ladder...); err != nil {
		return err
	}
	slack := time.Duration(b.spec.SLOMS / 2 * float64(time.Millisecond))
	var rungs []rung
	for _, r := range ladder {
		b.res.add(r)
		reads := r.readLatencies(true, -1)
		rungs = append(rungs, rung{Rate: r.phase.rate, Tail: percentile(reads, sloPercentile), Clean: r.clean(slack)})
		fmt.Fprintf(os.Stderr, "perfbench: rung %4.0f/s: %d reads, p50 %6.2f p90 %6.2f p99 %7.2f ms, clean %v\n",
			r.phase.rate, len(reads), percentile(reads, 50), percentile(reads, 90), percentile(reads, 99), rungs[len(rungs)-1].Clean)
	}
	reads := ref.readLatencies(false, -1)
	b.res.set("serving.query_p90_ms", percentile(reads, 90), "ms", len(reads))
	b.res.set("serving.query_p99_ms", percentile(reads, 99), "ms", len(reads))
	b.res.set("serving.max_qps_at_slo", maxRateAtSLO(rungs, b.spec.SLOMS), "1/s", len(rungs))
	inserts := b.insertLatencies(chk, ref)
	b.res.set("serving.insert_p90_ms", percentile(inserts, 90), "ms", len(inserts))
	return nil
}

// checkDigest pins the answers across commits: at the default seed, the
// SHA-256 of the first minRefQueries reference-phase answers must equal
// the recorded digest. Only a read-only workload's answers are fixed by
// the seed alone, so only distinct-probes records one.
func (b *bench) checkDigest(ref *phaseResult) {
	if b.spec.AnswerSHA256 == "" || b.seed != b.cfg.DefaultSeed {
		return
	}
	got := answerDigest(ref, minRefQueries)
	fmt.Fprintf(os.Stderr, "perfbench: answer digest %s\n", got)
	if got != b.spec.AnswerSHA256 {
		b.fail("answer digest %s differs from the pinned %s", got, b.spec.AnswerSHA256)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// peakRSSMB reads the process's peak resident set (VmHWM) from /proc.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
