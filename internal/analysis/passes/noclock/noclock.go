// Package noclock flags wall-clock reads (time.Now, time.Since, time.After,
// time.Tick, time.NewTimer, time.NewTicker) and any use of math/rand or
// math/rand/v2 in the algorithm path. Seed-replay (CHAOS_SEED, sweep
// resume, reference-composition differentials) only works because the algorithm path is
// a pure function of its inputs and the injected seed; an unseeded random
// source or a wall-clock read there breaks replay in ways the differential
// tests can only catch probabilistically.
//
// Deliberate seams — timing metrics that never feed back into results,
// budget deadlines, health-loop timing — are annotated at the site with
// `//lint:wallclock-ok <reason>`. Whole packages that are clock/randomness
// seams by design (internal/chaos, client jitter, cmd, examples) sit
// outside Scope.
package noclock

import (
	"go/ast"
	"go/types"

	"dualvdd/internal/analysis"
	"dualvdd/internal/analysis/lintutil"
)

// Scope limits the analyzer to the determinism-critical import paths.
var Scope = lintutil.Critical

var Analyzer = &analysis.Analyzer{
	Name: "noclock",
	Doc:  "flags wall-clock and math/rand use in the algorithm path unless annotated //lint:wallclock-ok <reason>",
	Run:  run,
}

// clockFuncs are the time package functions that read or arm the wall
// clock. time.Duration arithmetic and time.Time formatting are fine.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

func run(pass *analysis.Pass) error {
	if !lintutil.InScope(Scope, pass) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || pass.InTestFile(id.Pos()) {
				return true
			}
			pkg := objPkgPath(obj)
			switch {
			case pkg == "time" && clockFuncs[obj.Name()]:
				if !lintutil.Suppressed(pass, id.Pos(), "wallclock-ok") {
					pass.Reportf(id.Pos(), "wall-clock read time.%s in determinism-critical package; inject a clock seam or annotate //lint:wallclock-ok <reason>", obj.Name())
				}
			case pkg == "math/rand" || pkg == "math/rand/v2":
				if !lintutil.Suppressed(pass, id.Pos(), "wallclock-ok") {
					pass.Reportf(id.Pos(), "%s.%s in determinism-critical package; thread the flow seed through internal/chaos or annotate //lint:wallclock-ok <reason>", pkg, obj.Name())
				}
			}
			return true
		})
	}
	return nil
}

func objPkgPath(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}
