// Package precision implements the outer precision-based control loop of
// AutoE2E (Section IV.C) — the paper's main contribution. It contains:
//
//   - the reversed relaxed knapsack solver of Equation (8), which chooses
//     execution-time-ratio decrements Δa_il that reclaim a required amount
//     of CPU utilization at minimum total precision loss Σ w_il·Δa_il;
//   - its dual used for restoration, which spends a utilization budget on
//     ratio increases at maximum precision gain;
//   - the saturation detector that activates the loop when the inner
//     rate-based controller has lost control authority (settled
//     utilization above the bound for several consecutive inner periods);
//   - the computation precision restorer of Algorithm 1, which reacts to
//     rate-floor drops (vehicle deceleration) by bisecting task rates
//     toward their floors and letting the ratio controller refill the
//     resulting headroom with precision.
package precision

import (
	"github.com/autoe2e/autoe2e/internal/taskmodel"
	"github.com/autoe2e/autoe2e/internal/units"
)

// ratioItem is one adjustable subtask on the ECU being balanced.
type ratioItem struct {
	ref taskmodel.SubtaskRef
	// cost is the estimated utilization change per unit of ratio change:
	// c_il·r_i (Equation 8's container coefficients).
	cost float64
	// profit is the precision weight w_il.
	profit float64
	// headroom is how far the ratio can still move in the intended
	// direction (a − a_min when decreasing, 1 − a when increasing).
	headroom float64
}

// Workspace holds the reusable scratch of the knapsack solvers so hot
// loops — the outer controller reclaims and restores every saturated ECU
// each tick — allocate nothing at steady state. The zero value is ready
// to use; a workspace is owned by exactly one loop at a time.
type Workspace struct {
	items []ratioItem
}

// collect gathers the adjustable subtasks of ECU j with their knapsack
// coefficients into the reused item buffer. decrease selects the
// direction headroom is measured in.
func (w *Workspace) collect(st *taskmodel.State, ecu int, decrease bool) []ratioItem {
	sys := st.System()
	out := w.items[:0]
	for _, ref := range sys.OnECU(ecu) { //lint:allow effects System.OnECU builds its index once, then serves the cache
		sub := sys.Subtask(ref)
		if !sub.Adjustable() {
			continue
		}
		a := st.Ratio(ref)
		head := a - sub.MinRatio
		if !decrease {
			head = 1 - a
		}
		if head <= 0 {
			continue
		}
		out = append(out, ratioItem{
			ref: ref,
			// One unit of ratio change moves Equation (2)'s estimate by
			// c_il·r_i — a full-precision Load at the current rate.
			cost:     units.Load(sub.NominalExec, 1, st.Rate(ref.Task)).Float(),
			profit:   sub.Weight,
			headroom: head.Float(),
		})
	}
	w.items = out
	return out
}

// sortByDensity stable-sorts items by profit density w/(c·r) — ascending
// for reclaim (cheapest precision sacrificed first), descending for
// restore (most valuable precision returns first). A stable insertion
// sort: the knapsack rarely sees more than a handful of items per ECU,
// and unlike sort.SliceStable it allocates nothing. Stability makes the
// result the unique stable permutation, so ties still resolve by task
// order exactly as before.
func sortByDensity(list []ratioItem, descending bool) {
	for i := 1; i < len(list); i++ {
		it := list[i]
		j := i - 1
		for j >= 0 && densityBefore(it, list[j], descending) {
			list[j+1] = list[j]
			j--
		}
		list[j+1] = it
	}
}

// densityBefore reports whether a sorts strictly before b, comparing the
// profit densities cross-multiplied (a.profit/a.cost vs b.profit/b.cost
// without the division).
func densityBefore(a, b ratioItem, descending bool) bool {
	if descending {
		return a.profit*b.cost > b.profit*a.cost
	}
	return a.profit*b.cost < b.profit*a.cost
}

// ReduceRatios solves the reversed relaxed knapsack of Equation (8) for one
// ECU: it lowers execution-time ratios until the estimated utilization
// reclaimed reaches `reclaim`, filling items in ascending profit/cost order
// (w_il / (c_il·r_i)) so the total precision loss is minimal. It mutates
// the state and returns the utilization actually reclaimed, which is less
// than requested when every adjustable ratio is already at its floor.
func ReduceRatios(st *taskmodel.State, ecu int, reclaim units.Util) units.Util {
	var w Workspace
	return w.ReduceRatios(st, ecu, reclaim)
}

// ReduceRatios is the workspace form of the package-level ReduceRatios:
// identical result, zero allocations once the item buffer has grown.
func (w *Workspace) ReduceRatios(st *taskmodel.State, ecu int, reclaim units.Util) units.Util {
	if reclaim <= 0 {
		return 0
	}
	list := w.collect(st, ecu, true)
	// Ascending profit-to-cost: cheapest precision (least weight per
	// reclaimed utilization) is sacrificed first. Ties resolve by task
	// order for determinism.
	sortByDensity(list, false)
	reclaimed := units.Util(0)
	for _, it := range list {
		if reclaim-reclaimed <= 0 {
			break
		}
		if it.cost <= 0 {
			continue
		}
		da := (reclaim - reclaimed).Float() / it.cost
		if da > it.headroom {
			da = it.headroom
		}
		// Account the delta actually applied: discrete-ratio subtasks
		// floor onto their grid (Section IV.E.2), which can reclaim more
		// than requested.
		before := st.Ratio(it.ref)
		applied := st.SetRatio(it.ref, before-units.RawRatio(da))
		reclaimed += units.RawUtil((before - applied).Float() * it.cost)
	}
	return reclaimed
}

// RestoreRatios spends up to `budget` of estimated utilization on raising
// execution-time ratios toward one, in descending profit/cost order so the
// most valuable precision returns first (the under-utilization branch of
// Equation 8, where e_j is negative and Δa_il comes out negative). It
// mutates the state and returns the utilization actually consumed.
func RestoreRatios(st *taskmodel.State, ecu int, budget units.Util) units.Util {
	var w Workspace
	return w.RestoreRatios(st, ecu, budget)
}

// RestoreRatios is the workspace form of the package-level RestoreRatios:
// identical result, zero allocations once the item buffer has grown.
func (w *Workspace) RestoreRatios(st *taskmodel.State, ecu int, budget units.Util) units.Util {
	if budget <= 0 {
		return 0
	}
	list := w.collect(st, ecu, false)
	sortByDensity(list, true)
	spent := units.Util(0)
	for _, it := range list {
		if budget-spent <= 0 {
			break
		}
		if it.cost <= 0 {
			continue
		}
		da := (budget - spent).Float() / it.cost
		if da > it.headroom {
			da = it.headroom
		}
		// Discrete-ratio subtasks floor onto their grid, restoring less
		// than the continuous request — never exceeding the budget.
		before := st.Ratio(it.ref)
		applied := st.SetRatio(it.ref, before+units.RawRatio(da))
		spent += units.RawUtil((applied - before).Float() * it.cost)
	}
	return spent
}
