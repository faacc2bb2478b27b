//lintpath:example.com/internal/simtime

// Copy gating: the built-in registry pools Engine twice, through Reset for
// reuse and through CopyFrom for the session copies that Snapshot, Restore
// and RunTree forks make, so every run-state field
// must be overwritten by each method (directly, through a sub-copy call,
// or declared sticky). A field CopyFrom forgets keeps the destination's
// own stale value in the copy.
package fixture

type subState struct {
	vals []int
}

func (st *subState) CopyFrom(src *subState) {
	st.vals = append(st.vals[:0], src.vals...)
}

// Engine stands in for the registered pooled engine of this package.
type Engine struct {
	now   int
	slots []int
	sub   subState // copied through the sub-copy call below
	stale []int    // want "neither reset by CopyFrom nor annotated"
	//lint:sticky scratch sized once per campaign, contents rewritten before every read
	scratch []int
}

func (e *Engine) Reset() {
	e.now = 0
	e.slots = e.slots[:0]
	e.sub = subState{vals: e.sub.vals[:0]}
	e.stale = e.stale[:0]
}

func (e *Engine) CopyFrom(src *Engine) {
	e.now = src.now
	e.slots = append(e.slots[:0], src.slots...)
	e.sub.CopyFrom(&src.sub)
}

func (e *Engine) step() {
	e.now++
	e.slots = append(e.slots, e.now)
	e.sub.vals = append(e.sub.vals, e.now)
	e.stale = append(e.stale, 1)
	e.scratch = append(e.scratch, 2)
}
