package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"salsa/internal/lint/analysis"
)

// NoLock proves the lock-free claim of the epoch writer ingest path at
// compile time.
//
// The PR 7 design note promises "zero ingest-path locks, zero
// compare-and-swap": writers coordinate with the merger through a
// seqlock whose writer side is plain atomic loads and stores of
// writer-owned words. This analyzer rejects, inside //salsa:nolock
// functions, everything stronger than that: methods on sync types
// (Mutex, RWMutex, Once, WaitGroup, Map, Cond, Pool), atomic
// read-modify-write operations (Add*, CompareAndSwap*, Swap*, And, Or —
// on both the sync/atomic package functions and its typed wrappers),
// channel sends/receives/selects, and goroutine launches. Plain atomic
// Load and Store remain allowed: they are the seqlock.
//
// Call-graph discipline mirrors hotpath: within this module a nolock
// function may only call nolock functions, so annotating
// EpochWriter.UpdateBatch transitively pins enter/exit/flush. Dynamic
// calls (the private sketch's interface methods) are not statically
// resolvable; the race-hammer CI job covers those.
var NoLock = &analysis.Analyzer{
	Name: "nolock",
	Doc:  "//salsa:nolock functions must not reach mutexes, atomic RMW ops, or channels",
	Run:  runNoLock,
}

// atomicRMW matches the sync/atomic operations that issue a
// read-modify-write (LOCK-prefixed on amd64) — the cache-line
// contention the epoch design exists to avoid.
func atomicRMW(name string) bool {
	for _, prefix := range []string{"CompareAndSwap", "Swap", "Add", "And", "Or"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func runNoLock(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := analysis.DeclKey(pass.Pkg.Path(), fd)
			if !pass.Markers.Has(key, "nolock") {
				continue
			}
			checkNoLock(pass, fd)
		}
	}
	return nil
}

func checkNoLock(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "goroutine launch in nolock function %s", name)
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send in nolock function %s", name)
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "select in nolock function %s", name)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "channel receive in nolock function %s", name)
			}
		case *ast.CallExpr:
			checkNoLockCall(pass, fd, n)
		}
		return true
	})
}

func checkNoLockCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	name := fd.Name.Name
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			if b.Name() == "close" {
				pass.Reportf(call.Pos(), "channel close in nolock function %s", name)
			}
			return
		}
	}
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return // dynamic dispatch: covered by the race hammers, not statically
	}
	path, callee := fn.Pkg().Path(), fn.Name()
	recv := fn.Origin().Type().(*types.Signature).Recv()
	switch {
	case path == "sync" && recv != nil:
		pass.Reportf(call.Pos(), "sync.%s method %s in nolock function %s", receiverBase(recv), callee, name)
		return
	case path == "sync" && callee == "OnceFunc", path == "sync" && callee == "OnceValue", path == "sync" && callee == "OnceValues":
		pass.Reportf(call.Pos(), "sync.%s in nolock function %s", callee, name)
		return
	case path == "sync/atomic" && atomicRMW(callee):
		pass.Reportf(call.Pos(), "atomic read-modify-write %s in nolock function %s (the seqlock protocol permits only Load and Store)", callee, name)
		return
	}
	if path == pass.Module || strings.HasPrefix(path, pass.Module+"/") {
		if key := analysis.FuncKey(fn); key != "" && !pass.Markers.Has(key, "nolock") {
			pass.Reportf(call.Pos(), "nolock function %s calls %s.%s, which is not marked //salsa:nolock", name, path, callee)
		}
	}
}

func receiverBase(recv *types.Var) string {
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
