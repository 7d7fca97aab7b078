package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"salsa/internal/lint/analysis"
)

// EnvelopeTag closes the recurring PR-4/6/7 review gap: a new universal
// envelope tag constant that is marshaled but not fuzz-seeded, or
// decoded but never emitted, ships silently and only surfaces when a
// payload from a newer writer hits an older reader.
//
// In any package that declares tag* constants and an Unmarshal
// function, every tag constant must appear in all three legs of the
// codec:
//
//   - the marshal side: as an argument of an envHeader(tag, size) call;
//   - the decode side: as a case of the tag switch inside Unmarshal —
//     which must also never carry a raw integer case, so a tag byte
//     cannot be claimed without declaring its constant;
//   - the fuzz corpus: as a key of the envelopeTagSeeds map, whose
//     truthfulness (each named topology really marshals to that tag)
//     is pinned by TestEnvelopeTagSeedsCoverUniversalCorpus at run time.
//
// Two tag constants sharing a value is likewise an error: the second
// declaration silently shadows the first on the wire.
var EnvelopeTag = &analysis.Analyzer{
	Name: "envelopetag",
	Doc:  "every envelope tag* constant must be marshaled, decoded, and fuzz-seeded exactly once",
	Run:  runEnvelopeTag,
}

func runEnvelopeTag(pass *analysis.Pass) error {
	tags := collectTagConsts(pass)
	if len(tags) == 0 || lookupFunc(pass, "Unmarshal") == nil {
		return nil // not an envelope codec package
	}

	byValue := make(map[int64]*types.Const)
	for _, tc := range tags {
		v, ok := constant.Int64Val(tc.Val())
		if !ok {
			continue
		}
		if prev, dup := byValue[v]; dup {
			pass.Reportf(tc.Pos(), "tag constant %s duplicates the value %d of %s", tc.Name(), v, prev.Name())
			continue
		}
		byValue[v] = tc
	}

	marshaled := tagsInEnvHeaderCalls(pass)
	decoded := tagsInUnmarshalSwitch(pass)
	seeded, haveSeeds := tagsInSeedList(pass)

	for _, tc := range tags {
		var missing []string
		if !marshaled[tc] {
			missing = append(missing, "an envHeader(...) marshal call")
		}
		if !decoded[tc] {
			missing = append(missing, "the Unmarshal tag switch")
		}
		if haveSeeds && !seeded[tc] {
			missing = append(missing, "the envelopeTagSeeds fuzz-coverage map")
		}
		for _, leg := range missing {
			pass.Reportf(tc.Pos(), "tag constant %s is missing from %s", tc.Name(), leg)
		}
	}
	if !haveSeeds {
		pass.Reportf(tags[0].Pos(), "package declares envelope tag constants but no envelopeTagSeeds fuzz-coverage map")
	}
	return nil
}

func collectTagConsts(pass *analysis.Pass) []*types.Const {
	var tags []*types.Const
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if !isTagName(name) {
			continue
		}
		if c, ok := scope.Lookup(name).(*types.Const); ok {
			tags = append(tags, c)
		}
	}
	return tags
}

func isTagName(name string) bool {
	return len(name) > 3 && name[:3] == "tag" && name[3] >= 'A' && name[3] <= 'Z'
}

func lookupFunc(pass *analysis.Pass, name string) *types.Func {
	fn, _ := pass.Pkg.Scope().Lookup(name).(*types.Func)
	return fn
}

// tagsInEnvHeaderCalls records tag constants referenced anywhere inside
// the arguments of a call to envHeader.
func tagsInEnvHeaderCalls(pass *analysis.Pass) map[*types.Const]bool {
	used := make(map[*types.Const]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "envHeader" {
				return true
			}
			for _, arg := range call.Args {
				for _, tc := range tagConstsIn(pass, arg) {
					used[tc] = true
				}
			}
			return true
		})
	}
	return used
}

// tagsInUnmarshalSwitch records tag constants appearing as case
// expressions in tag-dispatch switches inside unmarshal functions
// (Unmarshal itself and its unmarshal* helpers — the decode side), and
// flags raw integer-literal cases in any switch that dispatches on
// tags.
func tagsInUnmarshalSwitch(pass *analysis.Pass) map[*types.Const]bool {
	used := make(map[*types.Const]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !strings.Contains(strings.ToLower(fd.Name.Name), "unmarshal") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok {
					return true
				}
				var caseTags []*types.Const
				var rawCases []ast.Expr
				for _, stmt := range sw.Body.List {
					clause, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, expr := range clause.List {
						if tcs := tagConstsIn(pass, expr); len(tcs) > 0 {
							caseTags = append(caseTags, tcs...)
						} else if lit, ok := ast.Unparen(expr).(*ast.BasicLit); ok {
							rawCases = append(rawCases, lit)
						}
					}
				}
				if len(caseTags) == 0 {
					return true // some other switch, not the tag dispatch
				}
				for _, tc := range caseTags {
					used[tc] = true
				}
				for _, raw := range rawCases {
					pass.Reportf(raw.Pos(), "raw literal case in the Unmarshal tag switch; declare a tag constant for it")
				}
				return true
			})
		}
	}
	return used
}

// tagsInSeedList records tag constants used as keys (or elements) of
// the package-level envelopeTagSeeds composite literal.
func tagsInSeedList(pass *analysis.Pass) (map[*types.Const]bool, bool) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != "envelopeTagSeeds" || i >= len(vs.Values) {
						continue
					}
					lit, ok := ast.Unparen(vs.Values[i]).(*ast.CompositeLit)
					if !ok {
						continue
					}
					used := make(map[*types.Const]bool)
					for _, elt := range lit.Elts {
						key := elt
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							key = kv.Key
						}
						for _, tc := range tagConstsIn(pass, key) {
							used[tc] = true
						}
					}
					return used, true
				}
			}
		}
	}
	return nil, false
}

// tagConstsIn resolves every tag constant referenced within expr.
func tagConstsIn(pass *analysis.Pass, expr ast.Expr) []*types.Const {
	var tags []*types.Const
	ast.Inspect(expr, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || !isTagName(id.Name) {
			return true
		}
		if c, ok := pass.TypesInfo.Uses[id].(*types.Const); ok && c.Pkg() == pass.Pkg {
			tags = append(tags, c)
		}
		return true
	})
	return tags
}
