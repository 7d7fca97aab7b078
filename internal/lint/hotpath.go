package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"salsa/internal/lint/analysis"
)

// HotPath proves the zero-allocation contract of //salsa:hotpath
// functions at compile time — the static complement to TestZeroAlloc*.
//
// The runtime tests pin allocs/op to zero for the paths they exercise;
// this analyzer rejects the constructs that would make an alloc
// possible before the code ever runs: defer and go statements, closures
// that capture variables, map and channel operations, make/new,
// fmt/sort.Slice calls, appends that can grow a non-receiver slice, and
// implicit interface conversions (boxing) at call sites.
//
// Call-graph discipline: a hotpath function may call, within this
// module, only functions that are themselves marked //salsa:hotpath.
// Annotating a function therefore transitively pins its callees, which
// is how the row-set/UpdateBatch/probe/SWAR-kernel graph stays closed
// under refactoring.
//
// Escape hatches, both deliberate: arguments of an explicit panic(...)
// call are exempt (a path that allocates only while crashing is not a
// hot-path regression), and dynamic calls (interface methods, function
// values, type-parameter methods) are not resolvable statically and are
// left to the runtime tests.
var HotPath = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "//salsa:hotpath functions must be free of heap-escaping constructs and call only hotpath functions",
	Run:  runHotPath,
}

func runHotPath(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := analysis.DeclKey(pass.Pkg.Path(), fd)
			if !pass.Markers.Has(key, "hotpath") {
				continue
			}
			(&hotPathChecker{pass: pass, decl: fd, recv: receiverName(fd)}).check()
		}
	}
	return nil
}

func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

type hotPathChecker struct {
	pass *analysis.Pass
	decl *ast.FuncDecl
	recv string
}

func (c *hotPathChecker) check() {
	ast.Inspect(c.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			c.pass.Reportf(n.Pos(), "defer in hotpath function %s (defer records allocate and delay work to return)", c.decl.Name.Name)
		case *ast.GoStmt:
			c.pass.Reportf(n.Pos(), "goroutine launch in hotpath function %s", c.decl.Name.Name)
		case *ast.SendStmt:
			c.pass.Reportf(n.Pos(), "channel send in hotpath function %s", c.decl.Name.Name)
		case *ast.SelectStmt:
			c.pass.Reportf(n.Pos(), "select in hotpath function %s", c.decl.Name.Name)
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				c.pass.Reportf(n.Pos(), "channel receive in hotpath function %s", c.decl.Name.Name)
			}
		case *ast.RangeStmt:
			switch c.underlying(n.X).(type) {
			case *types.Map:
				c.pass.Reportf(n.Pos(), "map iteration in hotpath function %s", c.decl.Name.Name)
			case *types.Chan:
				c.pass.Reportf(n.Pos(), "channel range in hotpath function %s", c.decl.Name.Name)
			}
		case *ast.IndexExpr:
			if _, ok := c.underlying(n.X).(*types.Map); ok {
				c.pass.Reportf(n.Pos(), "map access in hotpath function %s", c.decl.Name.Name)
			}
		case *ast.FuncLit:
			c.checkFuncLit(n)
			return false // the literal's body runs elsewhere; captures are the hazard here
		case *ast.CallExpr:
			if c.isPanic(n) {
				return false // crash paths may allocate: panic args are exempt
			}
			c.checkCall(n)
		}
		return true
	})
}

func (c *hotPathChecker) underlying(expr ast.Expr) types.Type {
	tv, ok := c.pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return nil
	}
	t := tv.Type.Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	return t
}

func (c *hotPathChecker) isPanic(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// checkFuncLit flags closures that capture variables of the enclosing
// function: a capturing closure forces its captures (and itself) to the
// heap.
func (c *hotPathChecker) checkFuncLit(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		declaredInEnclosing := v.Pos() >= c.decl.Pos() && v.Pos() < c.decl.End()
		declaredInLit := v.Pos() >= lit.Pos() && v.Pos() < lit.End()
		if declaredInEnclosing && !declaredInLit {
			c.pass.Reportf(lit.Pos(), "closure captures %q in hotpath function %s", id.Name, c.decl.Name.Name)
			return false
		}
		return true
	})
}

func (c *hotPathChecker) checkCall(call *ast.CallExpr) {
	// Builtins: append only onto receiver-rooted slices; make/new allocate.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				if len(call.Args) > 0 && rootIdent(call.Args[0]) != c.recv {
					c.pass.Reportf(call.Pos(), "append to non-receiver slice in hotpath function %s (growth allocates; only receiver-owned scratch may append)", c.decl.Name.Name)
				}
			case "make", "new":
				c.pass.Reportf(call.Pos(), "%s in hotpath function %s", b.Name(), c.decl.Name.Name)
			case "close":
				c.pass.Reportf(call.Pos(), "channel close in hotpath function %s", c.decl.Name.Name)
			}
			return
		}
	}

	// Conversions to interface types box their operand.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && !c.isInterfaceOrNil(call.Args[0]) {
			c.pass.Reportf(call.Pos(), "conversion to interface type %s in hotpath function %s (boxes the operand)", tv.Type, c.decl.Name.Name)
		}
		return
	}

	fn := analysis.Callee(c.pass.TypesInfo, call)
	if fn != nil && fn.Pkg() != nil {
		path, name := fn.Pkg().Path(), fn.Name()
		switch {
		case path == "fmt":
			c.pass.Reportf(call.Pos(), "fmt.%s in hotpath function %s", name, c.decl.Name.Name)
			return
		case path == "sort" && (name == "Slice" || name == "SliceStable" || name == "Sort" || name == "Stable"):
			c.pass.Reportf(call.Pos(), "sort.%s in hotpath function %s (interface-based sorting allocates; use an inline insertion sort)", name, c.decl.Name.Name)
			return
		}
		if c.inModule(path) {
			if key := analysis.FuncKey(fn); key != "" && !c.pass.Markers.Has(key, "hotpath") {
				c.pass.Reportf(call.Pos(), "hotpath function %s calls %s.%s, which is not marked //salsa:hotpath", c.decl.Name.Name, path, name)
			}
		}
	}

	// Passing a concrete value where a parameter is interface-typed
	// boxes it (fmt is the classic case, but any interface sink counts).
	c.checkBoxing(call)
}

func (c *hotPathChecker) inModule(path string) bool {
	return path == c.pass.Module || strings.HasPrefix(path, c.pass.Module+"/")
}

func (c *hotPathChecker) checkBoxing(call *ast.CallExpr) {
	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if _, isTypeParam := pt.(*types.TypeParam); isTypeParam {
			continue
		}
		if !c.isInterfaceOrNil(arg) {
			c.pass.Reportf(arg.Pos(), "argument boxes %s into %s in hotpath function %s", c.pass.TypesInfo.Types[arg].Type, pt, c.decl.Name.Name)
		}
	}
}

func (c *hotPathChecker) isInterfaceOrNil(arg ast.Expr) bool {
	tv, ok := c.pass.TypesInfo.Types[arg]
	if !ok || tv.Type == nil {
		return true // be conservative: unknown types are not findings
	}
	if tv.IsNil() {
		return true
	}
	if _, isTypeParam := tv.Type.(*types.TypeParam); isTypeParam {
		return true
	}
	return types.IsInterface(tv.Type)
}

// rootIdent unwraps selector/index/slice/star/paren chains to the
// left-most identifier: the owner of the storage being appended to.
func rootIdent(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e.Name
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return ""
		}
	}
}
