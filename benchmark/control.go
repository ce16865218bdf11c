package main

import (
	"context"
	"sync"
	"syscall"
	"time"
)

// The in-run control. Other tenants share the box's cores, and its speed
// drifts by a quarter and more within a minute, moving every raw time the
// benchmark takes. The control is a fixed piece of work that runs none of
// the program's code, timed in short bursts interleaved with the
// operations a run measures. Each end-to-end time is reported at
// reference speed: every raw piece of it is scaled by controlRefS over
// the median of the bursts timed just around that piece. A change to the
// program moves a scaled time exactly as it moves the raw one; a change
// in the box's speed moves the bursts too and partly cancels out.
//
// The burst is a branchy xorshift walk that lives in registers. Timed
// next to a repeated cold operating-point query and a repeated cold
// activity simulation for four minutes, its medians over 3 s windows
// correlated with theirs at r = 0.76 and 0.86 with a log-log slope near
// 0.9, and dividing by it took the spread of their logs from 0.086 to
// 0.057 and from 0.069 to 0.036. A warmed 7-point stencil over 24³
// fields and pointer chases over 1 and 16 MiB tracked them worse.
const (
	// controlRefS is the median burst on the box the benchmark was
	// defined on (a 2-vCPU Xeon); it fixes the unit of the scaled times.
	controlRefS = 1.2e-3
	// controlSteps is the length of one burst's walk.
	controlSteps = 200000
	// controlNear is how many bursts on each side of one piece of a
	// long call give its local speed.
	controlNear = 8
)

// control records the bursts timed alongside one measured phase.
type control struct {
	h      uint64
	bursts []float64
}

func newControl() *control { return &control{h: 1} }

// burst runs the walk once and records its CPU time.
func (c *control) burst() {
	c0 := cpuSeconds()
	h := c.h
	for i := 0; i < controlSteps; i++ {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		if h&3 == 0 {
			h += uint64(i)
		} else if h&5 == 1 {
			h -= 3
		}
	}
	c.h = h | 1
	c.bursts = append(c.bursts, cpuSeconds()-c0)
}

// gap runs n bursts between two measured segments.
func (c *control) gap(n int) {
	for i := 0; i < n; i++ {
		c.burst()
	}
}

// mark returns the index the next burst will get.
func (c *control) mark() int { return len(c.bursts) }

// scaleOver returns the factor that takes a raw time to reference speed,
// from the bursts with index in [from, to) (clipped to those recorded).
func (c *control) scaleOver(from, to int) float64 {
	from, to = max(from, 0), min(to, len(c.bursts))
	return controlRefS / median(c.bursts[from:to])
}

// scale is scaleOver every burst.
func (c *control) scale() float64 { return c.scaleOver(0, len(c.bursts)) }

// burstUS returns the median burst in microseconds.
func (c *control) burstUS() float64 { return median(c.bursts) * 1e6 }

// controlEvery is how often a sampling context runs a burst.
const controlEvery = 200 * time.Millisecond

// samplingCtx is a context whose Err check also keeps the control's
// bursts going through one long call: when controlEvery has passed since
// the last burst, Err books the CPU time the call used since then as one
// piece and runs a burst. The fleet replay checks its context every
// round and every few CG iterations, so the bursts sample the box's
// speed all through the replay. They live in registers and leave the
// replay's data in the caches.
type samplingCtx struct {
	context.Context
	mu   sync.Mutex
	ctl  *control
	last time.Time
	// cpu is the process CPU time when the last burst ended; pieces
	// holds the call's CPU time between two bursts and ends the index of
	// the burst that ended each piece.
	cpu    float64
	pieces []float64
	ends   []int
}

func newSamplingCtx(ctl *control) *samplingCtx {
	return &samplingCtx{Context: context.Background(), ctl: ctl, last: time.Now(), cpu: cpuSeconds()}
}

func (c *samplingCtx) Err() error {
	c.mu.Lock()
	if time.Since(c.last) >= controlEvery {
		c.book()
		c.ctl.burst()
		c.cpu = cpuSeconds()
		c.last = time.Now()
	}
	c.mu.Unlock()
	return c.Context.Err()
}

// book records the CPU time used since the last burst as one piece.
func (c *samplingCtx) book() {
	c.pieces = append(c.pieces, cpuSeconds()-c.cpu)
	c.ends = append(c.ends, c.ctl.mark())
}

// refSeconds returns the booked pieces' total at reference speed, each
// scaled by the bursts near its end.
func (c *samplingCtx) refSeconds() float64 {
	var ref float64
	for i, p := range c.pieces {
		ref += p * c.ctl.scaleOver(c.ends[i]-controlNear, c.ends[i]+controlNear)
	}
	return ref
}

// cpuSeconds returns the CPU time the process has used, user plus
// system, over all its threads. The benchmark runs on one P, so this is
// the time the program ran; time the box gave to other tenants, which a
// wall clock counts, is left out.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
