package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/workload"
)

// derive gives each independent input stream of a run its own seed, so
// that changing one stream (say, a phase's length) never shifts another.
func derive(seed int64, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return int64(h.Sum64()>>1) ^ seed*0x5DEECE66D
}

// probeChunk is how many probes one generator call renders. Fixed, not
// derived from the CPU count, so the probe stream is the same on every
// host.
const probeChunk = 64

// probe is one query raster with the scene it re-photographs.
type probe struct {
	img   *simimg.Image
	scene simimg.SceneID
}

// renderProbes returns the first n probes of the stream named by seed:
// chunk c holds Dataset.Queries(probeChunk, derive(seed, c)), rendered on
// all CPUs.
func renderProbes(ds *workload.Dataset, n int, seed int64) ([]probe, error) {
	out := make([]probe, n)
	chunks := (n + probeChunk - 1) / probeChunk
	errs := make([]error, chunks)
	parallel(chunks, func(c int) {
		qs, err := ds.Queries(probeChunk, derive(seed, "probe-chunk-"+strconv.Itoa(c)))
		if err != nil {
			errs[c] = err
			return
		}
		for i, q := range qs {
			if k := c*probeChunk + i; k < n {
				out[k] = probe{img: q.Probe, scene: q.Scene}
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// freshIDBase puts inserted photo IDs far above the generator's corpus
// IDs (SceneBase·10⁷ + index).
const freshIDBase = 1 << 40

// renderFresh renders photos never seen by the corpus, with IDs
// freshIDBase+first … freshIDBase+first+n-1.
func renderFresh(ds *workload.Dataset, first, n int, seed int64) []*simimg.Photo {
	out := make([]*simimg.Photo, n)
	parallel(n, func(i int) {
		out[i] = ds.FreshPhoto(uint64(freshIDBase+first+i), seed)
	})
	return out
}

// parallel runs f(0..n-1) on all CPUs and waits for it.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
				f(k)
			}
		}()
	}
	wg.Wait()
}

// zipf draws pool indexes with P(k) ∝ 1/(k+1)^s.
type zipf struct {
	rng *rand.Rand
	cdf []float64
}

func newZipf(seed int64, n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{rng: rand.New(rand.NewSource(seed)), cdf: cdf}
}

func (z *zipf) next() int {
	return min(sort.SearchFloat64s(z.cdf, z.rng.Float64()), len(z.cdf)-1)
}
