package lint

import (
	"go/ast"
)

// wallClockFuncs are the time-package entry points that read or wait on the
// wall clock. Any of them inside the simulation makes a run irreproducible.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// NoDeterminism forbids wall-clock time, the global math/rand source, and
// os.Getenv-driven branching inside internal/... packages. Simulated time
// must come from the simtime engine and randomness from
// simtime.NewRand(seed); environment variables must not select behaviour,
// because a replayed seed would no longer replay the run.
//
// One package is sanctioned for wall-clock use: internal/serve, the
// network-facing batch server, whose per-stage latency stamps and
// Retry-After estimates are *about* wall time. The exemption covers
// only the time-package check — math/rand and env-branching stay forbidden
// there, and simulation results must remain a pure function of the request
// (the serve golden tests pin that).
var NoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc:  "forbid wall-clock time, global math/rand, and env-driven branching in simulation code",
	Run:  runNoDeterminism,
}

func runNoDeterminism(pass *Pass) {
	if !isInternalPkg(pass.PkgPath) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.SelectorExpr:
				pkgPath, name, ok := qualified(pass.Info, v)
				if !ok {
					return true
				}
				switch pkgPath {
				case "time":
					if wallClockFuncs[name] && !isWallClockPkg(pass.PkgPath) {
						pass.Reportf(v.Pos(), "wall-clock time.%s is forbidden in simulation code; schedule on the simtime engine instead", name)
					}
				case "math/rand", "math/rand/v2":
					pass.Reportf(v.Pos(), "direct %s.%s use is forbidden in simulation code; derive randomness from simtime.NewRand(seed)", pkgPath, name)
				}
			case *ast.IfStmt:
				reportEnvBranch(pass, v.Init, v.Cond)
			case *ast.SwitchStmt:
				reportEnvBranch(pass, v.Init, v.Tag)
			}
			return true
		})
	}
}

// reportEnvBranch flags os.Getenv / os.LookupEnv calls inside a branch
// condition (or its init statement): configuration must be plumbed
// explicitly so runs are a pure function of seed and config.
func reportEnvBranch(pass *Pass, nodes ...ast.Node) {
	for _, n := range nodes {
		if n == nil {
			continue
		}
		ast.Inspect(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, name, ok := qualified(pass.Info, sel)
			if ok && pkgPath == "os" && (name == "Getenv" || name == "LookupEnv") {
				pass.Reportf(call.Pos(), "os.%s-driven branching breaks reproducibility; plumb configuration explicitly", name)
			}
			return true
		})
	}
}
