package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// ShapeCheck validates tensor shapes that are literally visible in the
// source: constant-foldable dimensions passed to tensor.New/FromSlice must
// be positive, and when both operands of a matmul-family call were built
// in the same function from constant dimensions, the contraction
// dimensions must agree. The tensor kernels panic on shape mismatch at run
// time; this catches the mistake before a multi-hour training run does.
var ShapeCheck = &Analyzer{
	Name: "shapecheck",
	Doc:  "literal tensor dimensions must be positive and matmul-compatible",
	Run:  runShapeCheck,
}

// matmulShapes describes the contraction rule of each matmul-family
// function: which argument indices hold the operands and which dims must
// match. Given a is rows x cols:
//
//	MatMulInto:    a.Cols == b.Rows  (a @ b)
//	MatMulATBInto: a.Rows == b.Rows  (aT @ b)
//	MatMulABTInto: a.Cols == b.Cols  (a @ bT)
var matmulShapes = map[string]struct {
	aArg, bArg int
	aDim, bDim int // 0 = rows, 1 = cols
	rule       string
}{
	"MatMulInto":    {1, 2, 1, 0, "a.Cols == b.Rows"},
	"MatMulATBInto": {1, 2, 0, 0, "a.Rows == b.Rows"},
	"MatMulABTInto": {1, 2, 1, 1, "a.Cols == b.Cols"},
}

func runShapeCheck(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkShapesInFunc(p, fd.Body)
		}
	}
}

func checkShapesInFunc(p *Pass, body *ast.BlockStmt) {
	// dims maps a local variable to the constant [rows, cols] it was built
	// with, when both were constant-foldable.
	dims := make(map[types.Object][2]int64)
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Rhs) != 1 || len(s.Lhs) == 0 {
				return true
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			if r, c, ok := constructorDims(p, call); ok {
				if id, isIdent := ast.Unparen(s.Lhs[0]).(*ast.Ident); isIdent && id.Name != "_" {
					if obj := p.Info.ObjectOf(id); obj != nil {
						dims[obj] = [2]int64{r, c}
					}
				}
			}
		case *ast.CallExpr:
			checkConstructorCall(p, s)
			checkMatmulCall(p, s, dims)
		}
		return true
	})
}

// isTensorFunc reports whether fn is the named package-level function of
// the tensor package.
func isTensorFunc(fn *types.Func, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	path := funcPkgPath(fn)
	return path == "buffalo/internal/tensor" || strings.HasSuffix(path, "/internal/tensor")
}

// constDim folds expr to an int64 if it is a compile-time constant.
func constDim(p *Pass, expr ast.Expr) (int64, bool) {
	tv, ok := p.Info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// constructorDims returns the constant (rows, cols) of a tensor.New or
// tensor.FromSlice call when both dimensions fold.
func constructorDims(p *Pass, call *ast.CallExpr) (r, c int64, ok bool) {
	fn := staticCallee(p.Info, call)
	if !isTensorFunc(fn, "New") && !isTensorFunc(fn, "FromSlice") {
		return 0, 0, false
	}
	if len(call.Args) < 2 {
		return 0, 0, false
	}
	r, rOK := constDim(p, call.Args[0])
	c, cOK := constDim(p, call.Args[1])
	if !rOK || !cOK {
		return 0, 0, false
	}
	return r, c, true
}

// checkConstructorCall flags non-positive constant dimensions.
func checkConstructorCall(p *Pass, call *ast.CallExpr) {
	fn := staticCallee(p.Info, call)
	if !isTensorFunc(fn, "New") && !isTensorFunc(fn, "FromSlice") {
		return
	}
	for i, arg := range call.Args[:min(2, len(call.Args))] {
		v, ok := constDim(p, arg)
		if !ok {
			continue
		}
		if v <= 0 {
			dim := "rows"
			if i == 1 {
				dim = "cols"
			}
			p.Reportf(arg.Pos(), "tensor %s dimension must be positive, got %d", dim, v)
		}
	}
}

// checkMatmulCall flags contraction mismatches between operands whose
// constant shapes are known.
func checkMatmulCall(p *Pass, call *ast.CallExpr, dims map[types.Object][2]int64) {
	fn := staticCallee(p.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	spec, ok := matmulShapes[fn.Name()]
	if !ok || !isTensorFunc(fn, fn.Name()) {
		return
	}
	if len(call.Args) <= spec.bArg {
		return
	}
	aShape, aOK := shapeOf(p, call.Args[spec.aArg], dims)
	bShape, bOK := shapeOf(p, call.Args[spec.bArg], dims)
	if !aOK || !bOK {
		return
	}
	if aShape[spec.aDim] != bShape[spec.bDim] {
		p.Reportf(call.Pos(), "%s shape mismatch: %dx%d vs %dx%d violates %s",
			fn.Name(), aShape[0], aShape[1], bShape[0], bShape[1], spec.rule)
	}
}

// shapeOf resolves an argument's constant shape: either a tracked local
// variable or an inline constructor call.
func shapeOf(p *Pass, expr ast.Expr, dims map[types.Object][2]int64) ([2]int64, bool) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := p.Info.ObjectOf(e)
		if obj == nil {
			return [2]int64{}, false
		}
		shape, ok := dims[obj]
		return shape, ok
	case *ast.CallExpr:
		if r, c, ok := constructorDims(p, e); ok {
			return [2]int64{r, c}, true
		}
	}
	return [2]int64{}, false
}
