// Package simtime provides the discrete-event simulation substrate used by
// every other component of the AutoE2E reproduction: an integer-microsecond
// clock, a deterministic event queue, and seeded randomness helpers.
//
// The paper's systems run on real hardware (FreeRTOS on Arduino boards and a
// Linux ECU). We replace wall-clock time with a simulated clock so that every
// scheduling decision is deterministic and reproducible, which the paper's
// own larger-scale evaluation (Section V.D) also does via the EUCON
// simulator.
package simtime

import (
	"fmt"
	"time"
)

// Time is an absolute simulation instant measured in integer microseconds
// from the start of the simulation. Integer microseconds avoid the
// floating-point drift that would otherwise accumulate over the hundreds of
// simulated seconds the paper's experiments run for, while still resolving
// the tens-of-microseconds execution slices of the task model.
type Time int64

// Duration is a span of simulated time in integer microseconds.
type Duration int64

// Common durations.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Never is a sentinel Time later than any reachable simulation instant.
const Never Time = 1<<63 - 1

// Unbounded is a sentinel Duration longer than any reachable simulation
// span, used by analyses to report divergent (unschedulable) quantities.
const Unbounded Duration = 1<<63 - 1

// FromSeconds converts a floating-point number of seconds to a Duration,
// rounding to the nearest microsecond.
func FromSeconds(s float64) Duration {
	return Duration(s*float64(Second) + 0.5)
}

// FromMillis converts a floating-point number of milliseconds to a Duration,
// rounding to the nearest microsecond.
func FromMillis(ms float64) Duration {
	return Duration(ms*float64(Millisecond) + 0.5)
}

// At converts a floating-point number of seconds to an absolute Time.
func At(s float64) Time { return Time(FromSeconds(s)) }

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Std converts the simulated duration to a time.Duration for interoperation
// with standard-library formatting.
func (d Duration) Std() time.Duration { return time.Duration(d) * time.Microsecond }

// String formats the duration using standard-library duration notation.
func (d Duration) String() string { return d.Std().String() }

// Seconds reports the instant as floating-point seconds from simulation
// start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add advances the instant by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub reports the span between two instants.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the instant as seconds with microsecond resolution.
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return fmt.Sprintf("%.6fs", t.Seconds())
}
