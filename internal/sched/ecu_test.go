package sched

import (
	"sort"
	"testing"
	"testing/quick"

	"github.com/autoe2e/autoe2e/internal/simtime"
)

// TestReadyHeapMatchesSortedModel drives the typed ready queue through
// random push/pop/remove sequences against a sorted slice. Pops must come
// out in higherPriorityThan order, and every queued job's index must name
// its own position, since abort removes by index.
func TestReadyHeapMatchesSortedModel(t *testing.T) {
	if err := quick.Check(func(ops []uint16) bool {
		var h readyHeap
		var model []*job
		var seq uint64
		for _, op := range ops {
			switch {
			case op%4 < 2 || len(model) == 0: // push
				seq++
				j := &job{
					priority: float64(1 + op%5),
					release:  simtime.Time(op % 3),
					seq:      seq,
					index:    -1,
				}
				h.push(j)
				model = append(model, j)
				sort.Slice(model, func(a, b int) bool { return model[a].higherPriorityThan(model[b]) })
			case op%4 == 2: // pop
				got := h.pop()
				if got != model[0] || got.index != -1 {
					t.Logf("pop = %v (index %d), want %v", got, got.index, model[0])
					return false
				}
				model = model[1:]
			default: // remove an arbitrary queued job
				j := h[int(op/4)%len(h)]
				h.remove(j.index)
				if j.index != -1 {
					return false
				}
				for k, m := range model {
					if m == j {
						model = append(model[:k], model[k+1:]...)
						break
					}
				}
			}
			if len(h) != len(model) {
				return false
			}
			for i, j := range h {
				if j.index != i {
					t.Logf("job at %d records index %d", i, j.index)
					return false
				}
			}
		}
		for _, want := range model {
			if got := h.pop(); got != want {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
