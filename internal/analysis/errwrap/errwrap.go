// Package errwrap enforces the error-wrapping invariant the engine's
// retry machinery depends on: errors that cross a package boundary
// must stay inspectable. cluster.IsRetryable, errors.Is, and errors.As
// all walk the Unwrap chain; formatting an error with %v or %s inside
// fmt.Errorf flattens it to text and silently strips its
// classification (Retryable, DeadlineExceeded, FaultError,
// AdmissionError, ...). The analyzer flags every fmt.Errorf call that
// formats an error-typed argument with any verb other than %w; such
// sites must either switch the verb to %w or return a structured error
// type that implements Unwrap.
package errwrap

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strconv"

	"fudj/internal/analysis/framework"
)

// Analyzer flags fmt.Errorf calls that flatten error values.
var Analyzer = &framework.Analyzer{
	Name: "errwrap",
	Doc: "fmt.Errorf must wrap error arguments with %w, not flatten them " +
		"with %v/%s: flattening breaks errors.Is/As and the engine's " +
		"retryability classification across package boundaries",
	Run: run,
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func run(pass *framework.Pass) error {
	for _, f := range pass.NonTestFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isFmtErrorf(pass, call) || len(call.Args) < 2 {
				return true
			}
			format, ok := constantString(pass, call.Args[0])
			if !ok {
				return true // non-constant format: nothing to check statically
			}
			verbs, ok := parseVerbs(format)
			if !ok || len(verbs) != len(call.Args)-1 {
				return true // indexed args or arity mismatch: punt to vet proper
			}
			for i, v := range verbs {
				arg := call.Args[i+1]
				if v == 'w' || v == '*' {
					continue
				}
				t := pass.TypesInfo.TypeOf(arg)
				if t == nil || !types.Implements(t, errorIface) {
					continue
				}
				pass.Reportf(arg.Pos(),
					"error formatted with %%%c flattens it; use %%w (or a structured error type) so errors.Is/As and retryability classification survive the boundary", v)
			}
			return true
		})
	}
	return nil
}

// isFmtErrorf reports whether call is fmt.Errorf from the standard
// library (matched by package path, so aliased imports still count).
func isFmtErrorf(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Path() == "fmt"
}

// constantString resolves expr to its constant string value if it has
// one (a literal or a string constant).
func constantString(pass *framework.Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	s, err := strconv.Unquote(tv.Value.ExactString())
	if err != nil {
		return "", false
	}
	return s, true
}

// parseVerbs extracts, in order, one entry per argument the format
// string consumes: the verb character for a formatted argument, or '*'
// for a width/precision consumed by a star. %% consumes nothing.
// Indexed arguments (%[1]s) return ok=false: positional reordering is
// rare and not worth modeling here.
func parseVerbs(format string) (verbs []byte, ok bool) {
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			return nil, false
		}
		if format[i] == '%' {
			continue
		}
		// flags
		for i < len(format) && (format[i] == '+' || format[i] == '-' ||
			format[i] == '#' || format[i] == ' ' || format[i] == '0') {
			i++
		}
		// width
		if i < len(format) && format[i] == '*' {
			verbs = append(verbs, '*')
			i++
		} else {
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				i++
			}
		}
		// precision
		if i < len(format) && format[i] == '.' {
			i++
			if i < len(format) && format[i] == '*' {
				verbs = append(verbs, '*')
				i++
			} else {
				for i < len(format) && format[i] >= '0' && format[i] <= '9' {
					i++
				}
			}
		}
		if i >= len(format) {
			return nil, false
		}
		if format[i] == '[' {
			return nil, false // indexed argument: bail
		}
		verbs = append(verbs, format[i])
	}
	return verbs, true
}
