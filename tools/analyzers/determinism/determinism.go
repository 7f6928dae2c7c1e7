// Package determinism enforces the reproducibility contract of the
// deterministic packages (internal/core, internal/stat, internal/exp,
// internal/report, internal/ingest): for a fixed seed and
// scale, a run's observable outputs
// — mined patterns, work counters, reports, serialized results — must be
// bit-identical across runs, because the CI bench gate compares them
// against a committed baseline.
//
// It reports three classes of violation:
//
//  1. Wall-clock reads: time.Now, time.Since, time.Until. Wall time is
//     inherently nondeterministic; where it is genuinely wanted (reporting
//     elapsed time, never gating on it) annotate the call site.
//  2. The global math/rand source: package-level functions such as
//     rand.Intn or rand.Shuffle (math/rand and math/rand/v2) draw from a
//     process-global, seed-shared source. Deterministic code must thread
//     an owned *rand.Rand (or the repo's stat.RNG) instead. rand.New and
//     rand.NewSource are allowed — they construct owned sources.
//  3. Map iteration feeding order-sensitive work: a `for ... range m` over
//     a map whose body (a) prints, writes, encodes or marshals, (b)
//     accumulates into a floating-point variable declared outside the
//     loop (float addition does not commute bit-exactly), or (c) appends
//     to a slice declared outside the loop that is not subsequently
//     sorted in the same block. Collect keys, sort them, and iterate the
//     sorted keys instead.
//
// Suppress intentional uses with `//trajlint:allow determinism -- reason`.
package determinism

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"trajpattern/tools/analyzers/internal/directive"
)

const doc = `check deterministic packages for wall-clock reads, the global math/rand source, and order-sensitive map iteration

The bench gate compares work counters bit-for-bit against a committed
baseline, so code in the deterministic packages must not observe the
clock, the global RNG, or Go's randomized map iteration order.`

const name = "determinism"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var pkgs string

func init() {
	Analyzer.Flags.StringVar(&pkgs, "pkgs",
		"trajpattern/internal/core,trajpattern/internal/stat,trajpattern/internal/exp,trajpattern/internal/report,trajpattern/internal/ingest",
		"comma-separated package paths (or /-suffixes) held to the determinism contract")
}

// clockFuncs are the forbidden wall-clock reads in package time.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randOwnedConstructors are the math/rand package-level functions that are
// allowed because they build owned sources rather than drawing from the
// global one.
var randOwnedConstructors = map[string]bool{"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true}

func run(pass *analysis.Pass) (any, error) {
	ix := directive.NewIndex(pass, name)
	defer ix.FlushBad(pass)
	if !directive.MatchPkg(pass.Pkg.Path(), pkgs) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if directive.InTestFile(pass, call.Pos()) {
			return
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		if pkgLevel(fn) {
			switch fn.Pkg().Path() {
			case "time":
				if clockFuncs[fn.Name()] {
					ix.Report(pass, analysis.Diagnostic{
						Pos: call.Pos(),
						Message: fmt.Sprintf(
							"time.%s in deterministic package %s: wall-clock reads break run-to-run reproducibility",
							fn.Name(), pass.Pkg.Name()),
					})
				}
			case "math/rand", "math/rand/v2":
				if !randOwnedConstructors[fn.Name()] {
					ix.Report(pass, analysis.Diagnostic{
						Pos: call.Pos(),
						Message: fmt.Sprintf(
							"global math/rand source (rand.%s) in deterministic package %s: thread an owned, seeded source instead",
							fn.Name(), pass.Pkg.Name()),
					})
				}
			}
		}
	})

	ins.WithStack([]ast.Node{(*ast.RangeStmt)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		rng := n.(*ast.RangeStmt)
		if directive.InTestFile(pass, rng.Pos()) {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(pass, ix, rng, stack)
		return true
	})
	return nil, nil
}

// calleeFunc resolves the called function, if statically known.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// pkgLevel reports whether fn is a package-level function (not a method).
func pkgLevel(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// sinkNames are call names that emit output or serialize inside a loop
// body; reaching one in map-iteration order makes the output
// nondeterministic.
var sinkNames = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "Marshal": true, "MarshalIndent": true,
}

// sortNames are call names accepted as an "intervening sort" of a slice
// built from a map range; isSortCall additionally accepts any callee whose
// name contains "sort" (sortEntries, sortPatterns, ...), so repo-local
// sorting helpers count.
var sortNames = map[string]bool{
	"Sort": true, "Strings": true, "Ints": true, "Float64s": true,
	"Slice": true, "SliceStable": true, "SortFunc": true, "SortStableFunc": true, "Stable": true,
}

func isSortCall(name string) bool {
	return sortNames[name] || strings.Contains(strings.ToLower(name), "sort")
}

func checkMapRange(pass *analysis.Pass, ix *directive.Index, rng *ast.RangeStmt, stack []ast.Node) {
	report := func(pos token.Pos, format string, args ...any) {
		// Anchor suppression lookups at the range statement so one
		// directive above the loop covers everything in it.
		if ix.Allowed(pass, rng.Pos()) {
			return
		}
		ix.Report(pass, analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
	}

	var appended []*types.Var // outer slices appended to in the body
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			name := callName(e)
			if sinkNames[name] {
				report(e.Pos(),
					"map iterated in nondeterministic order into %s; collect and sort the keys first",
					name)
				return true
			}
			if name == "append" {
				if v := outerVarTarget(pass, e, rng); v != nil {
					appended = append(appended, v)
				}
			}
		case *ast.AssignStmt:
			if e.Tok == token.ADD_ASSIGN || e.Tok == token.SUB_ASSIGN ||
				e.Tok == token.MUL_ASSIGN || e.Tok == token.QUO_ASSIGN {
				for _, lhs := range e.Lhs {
					if v := outerFloatVar(pass, lhs, rng); v != nil {
						report(e.Pos(),
							"floating-point accumulation into %s in map-iteration order is not bit-deterministic; iterate sorted keys",
							v.Name())
					}
				}
			}
		}
		return true
	})

	if len(appended) > 0 && !sortedAfter(pass, rng, stack, appended) {
		report(rng.Pos(),
			"slice %s built from map iteration is never sorted in this block; its order varies run to run",
			appended[0].Name())
	}
}

// callName returns the bare name of the called function or builtin.
func callName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// outerVarTarget returns the variable v in `v = append(v, ...)` when v is
// declared outside the range statement.
func outerVarTarget(pass *analysis.Pass, call *ast.CallExpr, rng *ast.RangeStmt) *types.Var {
	if len(call.Args) == 0 {
		return nil
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.Pos() == token.NoPos {
		return nil
	}
	if rng.Pos() <= v.Pos() && v.Pos() < rng.End() {
		return nil // declared inside the loop
	}
	return v
}

// outerFloatVar returns the variable behind lhs when it is float-typed and
// declared outside the range statement.
func outerFloatVar(pass *analysis.Pass, lhs ast.Expr, rng *ast.RangeStmt) *types.Var {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	basic, ok := v.Type().Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsFloat == 0 {
		return nil
	}
	if rng.Pos() <= v.Pos() && v.Pos() < rng.End() {
		return nil
	}
	return v
}

// sortedAfter reports whether, in the innermost block containing rng, some
// statement after rng calls a sort function mentioning one of the appended
// variables.
func sortedAfter(pass *analysis.Pass, rng *ast.RangeStmt, stack []ast.Node, vars []*types.Var) bool {
	var block *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		if b, ok := stack[i].(*ast.BlockStmt); ok {
			block = b
			break
		}
	}
	if block == nil {
		return false
	}
	isTarget := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
					for _, t := range vars {
						if v == t {
							found = true
						}
					}
				}
			}
			return !found
		})
		return found
	}
	for _, stmt := range block.List {
		if stmt.Pos() <= rng.End() {
			continue
		}
		sorted := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSortCall(callName(call)) {
				return true
			}
			for _, arg := range call.Args {
				if isTarget(arg) {
					sorted = true
				}
			}
			return !sorted
		})
		if sorted {
			return true
		}
	}
	return false
}
