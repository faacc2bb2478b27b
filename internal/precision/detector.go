package precision

import "github.com/autoe2e/autoe2e/internal/units"

// Detector implements the paper's saturation criterion: the outer loop
// activates for an ECU when its settled utilization has exceeded its bound
// by a configurable threshold for several consecutive inner-loop control
// periods — i.e. the inner rate-based controller has demonstrably lost
// control authority (Section IV.B).
type Detector struct {
	threshold units.Util
	needed    int
	counts    []int
}

// NewDetector builds a detector for n ECUs. threshold is the utilization
// excess over the bound that counts as a violation; needed is how many
// consecutive inner periods must violate before saturation is latched.
func NewDetector(n int, threshold units.Util, needed int) *Detector {
	if !(threshold >= 0) {
		panic("precision: negative or NaN detector threshold")
	}
	if needed < 1 {
		panic("precision: detector needs at least one period")
	}
	return &Detector{threshold: threshold, needed: needed, counts: make([]int, n)}
}

// Observe records one inner-period utilization sample per ECU against the
// bounds. A sample at or below bound+threshold resets that ECU's streak.
func (d *Detector) Observe(utils, bounds []units.Util) {
	for j := range d.counts {
		if utils[j] > bounds[j]+d.threshold {
			d.counts[j]++
		} else {
			d.counts[j] = 0
		}
	}
}

// SaturatedAt reports whether ECU j has latched saturation.
func (d *Detector) SaturatedAt(j int) bool { return d.counts[j] >= d.needed }

// StronglySaturatedAt reports whether ECU j has violated its bound for
// three times the latch requirement — long enough that the inner loop has
// demonstrably failed regardless of where the task rates sit (e.g. MIMO
// compromises on large systems that keep some rates off their floors
// while an ECU stays overloaded).
func (d *Detector) StronglySaturatedAt(j int) bool { return d.counts[j] >= 3*d.needed }

// Reset clears one ECU's streak (called after the outer loop has acted on
// it, so re-latching requires fresh evidence).
func (d *Detector) Reset(ecu int) { d.counts[ecu] = 0 }

// ResetAll clears every ECU's saturation streak, returning the detector to
// its freshly-constructed state.
func (d *Detector) ResetAll() {
	for j := range d.counts {
		d.counts[j] = 0
	}
}
