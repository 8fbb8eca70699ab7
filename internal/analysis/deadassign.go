package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// deadassignScope lists the packages of the halo-exchange path, where a
// blank assignment silencing "declared and not used" has twice hidden a
// real defect: the dead `grid` in the MD simulation's rank constructor and
// the orphaned staging vector in the EAM spline fit. In these packages a
// value that is computed must be consumed; a `_ = x` suppression is a
// review smell, not a fix.
var deadassignScope = []string{
	"tofumd/internal/halo",
	"tofumd/internal/lbm",
	"tofumd/internal/md/sim",
	"tofumd/internal/md/domain",
	"tofumd/internal/md/potential",
}

// DeadAssign flags `_ = x` statements whose right-hand side is a plain
// local variable: the only effect of such a statement is to defeat the
// compiler's unused-variable check, which means either the computation of
// x is dead (delete both) or a use of x was forgotten (a bug). Discarding
// call results (`_ = f()`), unused-parameter documentation (`_ = param` is
// still flagged — remove the parameter or name it _), and compile-time
// interface assertions (`var _ I = (*T)(nil)`, a declaration, not an
// assignment) are out of scope or unaffected.
var DeadAssign = &Analyzer{
	Name:        "deadassign",
	Doc:         "forbid blank assignments that suppress the unused-variable check in halo-path packages",
	AllowChecks: []string{"deadassign"},
	Run:         runDeadAssign,
}

func runDeadAssign(pass *Pass) (any, error) {
	if !inScope(pass.Pkg.Path(), deadassignScope) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			lhs, ok := as.Lhs[0].(*ast.Ident)
			if !ok || lhs.Name != "_" {
				return true
			}
			rhs, ok := ast.Unparen(as.Rhs[0]).(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := pass.TypesInfo.Uses[rhs].(*types.Var)
			if !ok || v.IsField() {
				return true
			}
			pass.Reportf(as.Pos(), "dead assignment _ = %s suppresses the unused-variable check: delete the computation of %s or use its value", rhs.Name, rhs.Name)
			return true
		})
	}
	return nil, nil
}
