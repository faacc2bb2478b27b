package eucon

// ControllerCheckpoint is a deep copy of the cross-period state of the
// centralized MPC Controller: the previously applied move Δr(k−1), the
// active-set warm-start solution and the solve totals. Everything else the
// Controller holds is either structural (rebuilt from config) or per-step
// scratch rewritten before it is read — the solver workspace included, as
// it carries nothing from one solve to the next. Restoring a checkpoint
// into a Controller built from the same system and config makes its next
// Step bit-identical to the captured controller's next Step, and its
// totals continue where the captured ones stood.
//
// The Decentralized controller needs no counterpart: its only persistent
// fields are scratch buffers that Step fully rewrites, so a freshly Reset
// instance already behaves identically.
type ControllerCheckpoint struct {
	prevDelta []float64
	prevX     []float64
	warm      bool
	stats     SolveStats
}

// CaptureFrom overwrites cp with a deep copy of c's cross-period state,
// recycling cp's backing arrays so repeated snapshots are allocation-free
// at steady state.
func (cp *ControllerCheckpoint) CaptureFrom(c *Controller) {
	cp.prevDelta = append(cp.prevDelta[:0], c.prevDelta...)
	cp.prevX = append(cp.prevX[:0], c.prevX...)
	cp.warm = c.warm
	cp.stats = c.stats
}

// RestoreTo overwrites c's cross-period state with the captured copy. The
// destination must be built from the same system shape and config as the
// captured controller (the session layer guarantees this).
func (cp *ControllerCheckpoint) RestoreTo(c *Controller) {
	c.prevDelta = append(c.prevDelta[:0], cp.prevDelta...)
	c.prevX = append(c.prevX[:0], cp.prevX...)
	c.warm = cp.warm
	c.stats = cp.stats
}
