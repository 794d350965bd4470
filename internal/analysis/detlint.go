package analysis

import (
	"go/ast"
	"strconv"
)

// Detlint enforces the determinism contract of the simulation packages:
// the only sanctioned source of randomness is internal/rng, simulated
// time is the only clock, and control flow must not depend on the
// process environment. Any of these leaking into a simulation package
// breaks the bit-identical-trace guarantee the whole study rests on —
// usually silently, because small runs still look plausible.
var Detlint = &Analyzer{
	Name: "detlint",
	Doc: "forbid wall-clock reads (time.Now & friends), ambient randomness " +
		"(math/rand, math/rand/v2) and environment-dependent branches " +
		"(os.Getenv) in simulation packages; use internal/rng streams and " +
		"des.Simulator.Now instead",
	// Every package whose behaviour feeds the simulated trace or its
	// exported artifacts, cmd/... included (the figure/recovery shells
	// write the committed results/ tables). internal/rng is exempt by
	// construction; sanctioned wall-clock use in obs profiling and live
	// networking is annotated in-tree with //lint:allow.
	Include: []string{
		"internal/des/...", "internal/pdes", "internal/sim", "internal/protocol",
		"internal/mobile", "internal/workload", "internal/mlog",
		"internal/recovery", "internal/check", "internal/trace",
		"internal/stats", "internal/vclock", "internal/statestore",
		"internal/storage", "internal/energy", "internal/wire",
		"internal/obs/...", "internal/live", "internal/replaycmp",
		"cmd/...",
	},
	Run: runDetlint,
}

// wallClockFuncs are the package-level functions of "time" that read or
// depend on the wall clock / OS timers. Pure conversions and constants
// (time.Duration arithmetic, time.Unix on stored values) stay legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// envFuncs are the functions of "os" that make behaviour depend on the
// process environment.
var envFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true,
}

func runDetlint(pass *Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import of %s in a simulation package: derive a seeded stream from internal/rng instead", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			path, name, ok := pkgFunc(pass.TypesInfo, call)
			if !ok {
				return true
			}
			switch {
			case path == "time" && wallClockFuncs[name]:
				pass.Reportf(call.Pos(),
					"time.%s reads the wall clock in a simulation package: simulated time flows only from des.Simulator.Now", name)
			case path == "os" && envFuncs[name]:
				pass.Reportf(call.Pos(),
					"os.%s makes simulation behaviour depend on the process environment: thread configuration through Config structs", name)
			}
			return true
		})
	}
	return nil
}
