package main

import (
	"math/rand"
	"sync"
	"time"
)

// poissonSchedule returns the send offsets of the first n arrivals of a
// Poisson process at rate per second: exponential gaps drawn from seed,
// so the same seed always yields the same schedule. Fixing the count
// rather than the span keeps every run's sample count the same.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// sample is the timing of one scheduled operation, as offsets from the
// phase start. Latency is End-Due: it counts the wait behind earlier slow
// operations, so a stall cannot hide the requests it delayed.
type sample struct {
	Due, Start, End time.Duration
	Err             error
}

func (s sample) latency() time.Duration { return s.End - s.Due }

// runOpenLoop sends operation i at schedule[i] whatever the state of
// earlier ones, through at most workers concurrent request goroutines.
// An operation due while every worker is busy waits in an unbounded
// queue, and that wait is part of its latency. do receives the wall time
// the operation was due. late[i] is how far the dispatcher itself ran
// behind schedule[i]; it is the generator's own validity check.
func runOpenLoop(schedule []time.Duration, workers int, do func(i int, due time.Time) error) (samples []sample, late []time.Duration) {
	samples = make([]sample, len(schedule))
	late = make([]time.Duration, len(schedule))
	// Sized to the whole schedule so the dispatcher never blocks on a
	// backlog: it must keep to the schedule however far the workers fall
	// behind.
	queue := make(chan int, len(schedule))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				samples[i].Start = time.Since(start)
				samples[i].Err = do(i, start.Add(schedule[i]))
				samples[i].End = time.Since(start)
			}
		}()
	}
	for i, at := range schedule {
		if wait := at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		late[i] = time.Since(start) - at
		samples[i].Due = at
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples, late
}

// backlogGrew reports whether the backlog grew during a phase: the
// median queueing delay (send start minus due time) of the phase's last
// third exceeds that of its first third by more than slack. Beyond
// capacity the delay grows without bound; a single stall, such as a
// snapshot holding a connection, moves a few operations and not the
// median.
func backlogGrew(samples []sample, slack time.Duration) bool {
	third := len(samples) / 3
	if third == 0 {
		return false
	}
	wait := func(ss []sample) float64 {
		w := make([]float64, len(ss))
		for i, s := range ss {
			w[i] = float64(s.Start - s.Due)
		}
		return median(w)
	}
	return wait(samples[len(samples)-third:])-wait(samples[:third]) > float64(slack)
}
