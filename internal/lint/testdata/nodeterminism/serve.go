//lintpath:github.com/autoe2e/autoe2e/internal/serve

// The sanctioned wall-clock package: internal/serve stamps latencies and
// estimates Retry-After on real time by design. Only the
// time-package check is lifted there — randomness and env branching stay
// forbidden, and the exemption does not leak to sibling internal packages
// (pos.go pins those).
package serve

import (
	"math/rand"
	"os"
	"time"
)

// NEG wall-clock use is the serve package's sanctioned purpose.
func flushTimer(maxWait time.Duration) *time.Timer {
	return time.NewTimer(maxWait)
}

// NEG latency stamps ride every request.
func stamp(start time.Time) time.Duration {
	return time.Since(start)
}

func retryJitter() float64 {
	return rand.Float64() // want "math/rand"
}

func envConfigured() bool {
	if os.Getenv("AUTOE2E_QUEUE") != "" { // want "os.Getenv"
		return true
	}
	return false
}
