package repro_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllow names, qualified by package and receiver, the top-level
// functions and methods that no non-test Go uses and that stay anyway, each
// with the reason it stays.
var testOnlyAllow = map[string]string{
	// Observers: tests read an invariant through them.
	"bbuf.FileSystem.BufferedBytes":   "tests observe the bytes a burst buffer still holds",
	"storage.Handle.TotalOutstanding": "tests check that every commit drained",
	"recover.Epoch.LostRanks":         "tests observe which ranks an epoch lost",
	"recover.Epoch.Invalid":           "tests observe why an epoch was invalidated",
	"recover.Log.Invalidated":         "tests count the epochs a loss invalidated",
	"fabric.Pipe.BusyTime":            "tests check a pipe's busy-time conservation",
	"fabric.Pipe.NextFree":            "tests observe a pipe's queue",
	"mpi.Request.LocalTime":           "tests check a request's local completion time",
	"sim.Kernel.RunUntil":             "tests stop a kernel at a chosen time",
	"sim.Kernel.AtHook":               "tests schedule a hook at an absolute time",
	"data.Equal":                      "tests compare payloads byte for byte",
	"sim.Resource.InUse":              "tests check that a resource drained",
	"ckpt.Strategies":                 "tests pin the strategy registry's order",
	// The machine's topology and allocator getters.
	"machine.Machine.Allocated":         "tests check the machine entered allocated mode",
	"machine.Machine.Allocs":            "tests check the allocator's live slices",
	"machine.Alloc.BaseNode":            "tests check where the allocator placed a slice",
	"machine.Alloc.ContainsRank":        "tests check a slice's rank window",
	"machine.Dragonfly.Groups":          "tests check the dragonfly's shape",
	"machine.Dragonfly.RoutersPerGroup": "tests check the dragonfly's shape",
	"machine.FatTree.Leaves":            "tests check the fat tree's shape",
	"machine.FatTree.Spines":            "tests check the fat tree's shape",
	"machine.Route":                     "tests check every topology's routes",
	"machine.TopologyNames":             "tests sweep every topology",
	// Leave with the partitioned kernel.
	"sim.Kernel.AfterHookCtx": "the partitioned kernel's lane hooks",
	"sim.Kernel.PartRNG":      "the partitioned kernel's per-partition streams",
	// perfbench's mpi.p2p_ns probe calls it.
	"mpi.Comm.Send": "the blocking point-to-point send",
	// References and checkers that tests compare against.
	"mpi.Request.Wait":    "Isend then Wait is the unfolded reference for StartIsendWaitSeq",
	"cemfmt.Validate":     "tests check the files every strategy writes against the checkpoint format",
	"trace.File.Validate": "tests check written trace files against the trace_event schema",
}

// stdlibIfaces are the standard-library interfaces through which the
// standard library calls a method the module declares.
var stdlibIfaces = [][2]string{
	{"fmt", "Stringer"},
	{"fmt", "Formatter"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
}

// goPackage is the part of `go list -json` output the scan reads.
type goPackage struct {
	Dir, ImportPath string
	GoFiles         []string
	Standard        bool
}

// goList lists the non-standard packages ./... depends on in dir's module,
// each after the packages it imports.
func goList(t *testing.T, dir string) []goPackage {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []goPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for dec.More() {
		var p goPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if !p.Standard {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs
}

// moduleImporter returns the module's packages already checked and
// type-checks the standard library from source.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p := m.checked[path]; p != nil {
		return p, nil
	}
	return m.std.Import(path)
}

// lookupMethod returns the method m resolves to in t's method set.
func lookupMethod(t types.Type, m *types.Func) (*types.Func, bool) {
	obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name())
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil, false
	}
	return fn.Origin(), true
}

// qualName names a function or method as package.Recv.Name.
func qualName(f *types.Func) string {
	name := f.Pkg().Name() + "." + f.Name()
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = f.Pkg().Name() + "." + n.Obj().Name() + "." + f.Name()
		}
	}
	return name
}

// TestNoTestOnlyAPI type-checks the non-test Go of the root module and of
// bench/ and fails on a top-level function or method, declared outside
// bench/, that no non-test Go uses, unless testOnlyAllow names it. Such code
// only tests reach: move what it checks onto the live path, or delete it.
//
// A function counts as used where non-test code names that exact object (a
// generic one through its origin); a function's uses of itself keep nothing
// alive. A method is used, too, when non-test code calls an interface method
// it implements, or when the standard library calls it through one of
// stdlibIfaces. Assigning a value to an interface keeps none of its methods
// alive.
func TestNoTestOnlyAPI(t *testing.T) {
	fset := token.NewFileSet()
	imp := moduleImporter{map[string]*types.Package{}, importer.ForCompiler(fset, "source", nil)}
	var decls []*types.Func
	used := map[*types.Func]bool{}
	// ifaceCalls holds every interface method non-test code calls.
	type ifaceCall struct {
		iface  *types.Interface
		method *types.Func
	}
	ifaceCalls := map[ifaceCall]bool{}
	fields := newFieldScan()
	consts := newConstScan()
	for _, dir := range []string{".", "bench"} {
		for _, p := range goList(t, dir) {
			if imp.checked[p.ImportPath] != nil {
				continue
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			info := &types.Info{
				Defs:  map[*ast.Ident]types.Object{},
				Uses:  map[*ast.Ident]types.Object{},
				Types: map[ast.Expr]types.TypeAndValue{},
			}
			conf := types.Config{Importer: imp}
			pkg, err := conf.Check(p.ImportPath, fset, files, info)
			if err != nil {
				t.Fatalf("type-check %s: %v", p.ImportPath, err)
			}
			imp.checked[p.ImportPath] = pkg
			inBench := strings.HasPrefix(p.ImportPath, "repro/bench")
			fields.scan(fset, pkg, info, files, !inBench)
			consts.scan(pkg, info, files, !inBench)
			for _, f := range files {
				for _, d := range f.Decls {
					fd, _ := d.(*ast.FuncDecl)
					var self *types.Func
					if fd != nil {
						self = info.Defs[fd.Name].(*types.Func)
						if name := fd.Name.Name; !inBench && name != "main" && name != "init" && name != "_" {
							decls = append(decls, self)
						}
					}
					ast.Inspect(d, func(n ast.Node) bool {
						id, ok := n.(*ast.Ident)
						if !ok {
							return true
						}
						fn, ok := info.Uses[id].(*types.Func)
						if !ok {
							return true
						}
						fn = fn.Origin()
						if fn == self {
							return true
						}
						used[fn] = true
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
							if it, ok := recv.Type().Underlying().(*types.Interface); ok {
								ifaceCalls[ifaceCall{it, fn}] = true
							}
						}
						return true
					})
				}
			}
		}
	}
	for _, s := range stdlibIfaces {
		pkg, err := imp.Import(s[0])
		if err != nil {
			t.Fatal(err)
		}
		it := pkg.Scope().Lookup(s[1]).Type().Underlying().(*types.Interface)
		for i := 0; i < it.NumMethods(); i++ {
			ifaceCalls[ifaceCall{it, it.Method(i)}] = true
		}
	}
	// errors.Is and errors.As call Unwrap through an unnamed interface.
	errType := types.Universe.Lookup("error").Type()
	errIface := errType.Underlying().(*types.Interface)
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	ifaceCalls[ifaceCall{errIface, errIface.Method(0)}] = true
	ifaceCalls[ifaceCall{types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete(), unwrap}] = true
	// Every interface call keeps alive the method it reaches on each module
	// type that implements the interface, a promoted method included.
	var ptrs []types.Type
	for _, pkg := range imp.checked {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			// Implements is unspecified on uninstantiated generic types.
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
				ptrs = append(ptrs, types.NewPointer(n))
			}
		}
	}
	for c := range ifaceCalls {
		for _, pt := range ptrs {
			if !types.Implements(pt, c.iface) {
				continue
			}
			if m, ok := lookupMethod(pt, c.method); ok {
				used[m] = true
			}
		}
	}
	declared := map[string]bool{}
	var dead []string
	for _, f := range decls {
		name := qualName(f)
		declared[name] = true
		if !used[f] && testOnlyAllow[name] == "" {
			dead = append(dead, fmt.Sprintf("%s: %s", fset.Position(f.Pos()), name))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: no non-test Go uses it", d)
	}
	for name := range testOnlyAllow {
		if !declared[name] {
			t.Errorf("allowlisted %s is declared nowhere outside bench/; drop it from testOnlyAllow", name)
		}
	}
	fields.check(t, fset)
	consts.check(t, fset)
}

// fieldOnlyAllow names, qualified by package and struct, the fields that no
// non-test Go writes or reads and that stay anyway, each with the reason.
var fieldOnlyAllow = map[string]string{
	"ckpt.CommitRecord.Blocks": "writeseq.golden hashes every epoch record's blocks",
	"exp.Tenant.Dir":           `the nt=1 golden-identity test writes to the single-tenant "ckpt" directory, and PVFS hashes paths to metadata servers`,
	"exp.Run.Events":           "the root Fig5 benchmarks report events/s from it",
	// Observers: tests check an invariant through them that no live output
	// shows.
	"bbuf.BufferStats.AbsorbedBytes": "tests check the fleet's byte conservation",
	"bbuf.BufferStats.DrainedBytes":  "tests check the fleet's byte conservation",
	"recover.Result.LostSegSteps":    "tests check a crashed segment's attempted steps are counted",
	"recover.Result.ScanBytes":       "tests check restart scans read the manifests back",
	"recover.Result.WaitTime":        "tests check repair waits are charged",
	"storage.Stats.Creates":          "tests count the files each strategy creates",
	"storage.Stats.Opens":            "tests count a backend's opens",
	"storage.Stats.Closes":           "tests count a backend's closes",
	"storage.Stats.BytesWritten":     "tests check the bytes a strategy wrote",
	"storage.Stats.BytesRead":        "tests bound the bytes a read moved",
	"storage.Stats.Retries":          "tests check fault handling probed the dead server",
	"storage.Stats.FaultDelay":       "tests check fault handling charged its delay",
}

// singleValueAllow names, qualified by package and struct, the fields that
// every non-test write sets to one constant and that stay fields anyway, each
// with the reason.
var singleValueAllow = map[string]string{
	"exp.PriorWorkRow.NP": "a printed col: column; every prior-work row reports the same rank count",
}

// fieldScan records, for every struct field declared outside bench/, whether
// non-test Go writes it, whether it reads it, and whether every write gives it
// one constant value.
type fieldScan struct {
	decl          map[*types.Var]string // field -> package.Struct.field
	written, read map[*types.Var]bool
	// value holds the constant a field's writes give it; varied marks a field
	// some write gives a non-constant or second value, or whose zero value a
	// literal leaving it out uses.
	value  map[*types.Var]constant.Value
	varied map[*types.Var]bool
}

func newFieldScan() *fieldScan {
	return &fieldScan{map[*types.Var]string{}, map[*types.Var]bool{}, map[*types.Var]bool{},
		map[*types.Var]constant.Value{}, map[*types.Var]bool{}}
}

// set records a write of val to field v; a nil val is not a constant.
func (s *fieldScan) set(v *types.Var, val constant.Value) {
	v = v.Origin()
	if old, ok := s.value[v]; val == nil || ok && !constant.Compare(old, token.EQL, val) {
		s.varied[v] = true
		return
	}
	s.value[v] = val
}

// scan records the fields pkg declares, when declare is set, and every
// write and read of a field in files.
func (s *fieldScan) scan(fset *token.FileSet, pkg *types.Package, info *types.Info, files []*ast.File, declare bool) {
	// writes holds the field selectors in a write position; addressed holds
	// those whose address is taken, which code may also read through.
	writes, addressed := map[*ast.Ident]bool{}, map[*ast.Ident]bool{}
	field := func(id *ast.Ident) *types.Var {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	// write records a write of val to e when e selects a field; a nil val
	// is not a constant.
	write := func(e ast.Expr, val constant.Value) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
			if v := field(sel.Sel); v != nil {
				s.set(v, val)
			}
		}
	}
	for _, f := range files {
		if declare {
			s.declare(fset, pkg, info, f)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					var val constant.Value
					if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
						val = info.Types[n.Rhs[i]].Value
					}
					write(lhs, val)
				}
			case *ast.IncDecStmt:
				write(n.X, nil)
			case *ast.UnaryExpr:
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND {
					addressed[sel.Sel] = true
					if v := field(sel.Sel); v != nil {
						s.set(v, nil)
					}
				}
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					write(n.Key, nil)
					write(n.Value, nil)
				}
			case *ast.CompositeLit:
				st, ok := info.Types[n].Type.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				keyed := map[*types.Var]bool{}
				for i, e := range n.Elts {
					kv, ok := e.(*ast.KeyValueExpr)
					if !ok {
						// An unkeyed literal writes every field.
						s.written[st.Field(i).Origin()] = true
						s.set(st.Field(i), info.Types[e].Value)
						continue
					}
					writes[kv.Key.(*ast.Ident)] = true
					v := field(kv.Key.(*ast.Ident))
					keyed[v] = true
					s.set(v, info.Types[kv.Value].Value)
				}
				// A keyed or empty literal gives the fields it leaves out
				// their zero value.
				if len(n.Elts) == 0 || len(keyed) > 0 {
					for i := 0; i < st.NumFields(); i++ {
						if !keyed[st.Field(i)] {
							s.set(st.Field(i), nil)
						}
					}
				}
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			v = v.Origin()
			s.written[v] = s.written[v] || writes[id] || addressed[id]
			s.read[v] = s.read[v] || !writes[id]
		}
	}
	// Map lookups compare every field of a struct key.
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			s.readAll(m.Key())
		}
	}
}

// readAll marks every field of t, when t is a struct, read, nested structs
// included.
func (s *fieldScan) readAll(t types.Type) {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		s.read[st.Field(i).Origin()] = true
		s.readAll(st.Field(i).Type())
	}
}

// declare records the named, non-embedded fields of every struct type in f,
// each named after the type (or, for a struct outside a type declaration,
// its file and line) and the fields it nests in.
func (s *fieldScan) declare(fset *token.FileSet, pkg *types.Package, info *types.Info, f *ast.File) {
	var walk func(prefix string, st *ast.StructType)
	walk = func(prefix string, st *ast.StructType) {
		for _, fl := range st.Fields.List {
			var tag reflect.StructTag
			if fl.Tag != nil {
				raw, _ := strconv.Unquote(fl.Tag.Value)
				tag = reflect.StructTag(raw)
			}
			for _, id := range fl.Names {
				if id.Name == "_" {
					continue
				}
				v := info.Defs[id].(*types.Var)
				s.decl[v] = prefix + "." + id.Name
				// Code uses a struct or array field's zero value in place.
				switch v.Type().Underlying().(type) {
				case *types.Struct, *types.Array:
					s.written[v] = true
				}
				// table.Of and encoding/json reach tagged fields by reflection.
				if _, ok := tag.Lookup("col"); ok {
					s.read[v] = true
				}
				if _, ok := tag.Lookup("json"); ok {
					s.read[v], s.written[v], s.varied[v] = true, true, true
				}
			}
			name := prefix
			if len(fl.Names) > 0 {
				name += "." + fl.Names[0].Name
			}
			ast.Inspect(fl.Type, func(n ast.Node) bool {
				if nested, ok := n.(*ast.StructType); ok {
					walk(name, nested)
					return false
				}
				return true
			})
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		var prefix string
		var typ ast.Node
		switch n := n.(type) {
		case *ast.TypeSpec:
			prefix, typ = pkg.Name()+"."+n.Name.Name, n.Type
		case *ast.StructType:
			pos := fset.Position(n.Pos())
			prefix, typ = fmt.Sprintf("%s.struct@%s:%d", pkg.Name(), filepath.Base(pos.Filename), pos.Line), n
		default:
			return true
		}
		ast.Inspect(typ, func(m ast.Node) bool {
			if st, ok := m.(*ast.StructType); ok {
				walk(prefix, st)
				return false
			}
			return true
		})
		return false
	})
}

// check fails on every declared field that no non-test Go writes or reads,
// unless fieldOnlyAllow names it, and on every field that every non-test
// write sets to one constant, unless singleValueAllow names it.
func (s *fieldScan) check(t *testing.T, fset *token.FileSet) {
	declared := map[string]bool{}
	var dead []string
	for v, name := range s.decl {
		declared[name] = true
		pos := fset.Position(v.Pos())
		if val, ok := s.value[v]; ok && !s.varied[v] && singleValueAllow[name] == "" {
			dead = append(dead, fmt.Sprintf("%s: field %s: every non-test write sets it to %s; make it a constant", pos, name, val))
		}
		if fieldOnlyAllow[name] != "" {
			continue
		}
		if !s.written[v] {
			dead = append(dead, fmt.Sprintf("%s: field %s: no non-test Go sets it", pos, name))
		}
		if !s.read[v] {
			dead = append(dead, fmt.Sprintf("%s: field %s: no non-test Go reads it", pos, name))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
	for name := range fieldOnlyAllow {
		if !declared[name] {
			t.Errorf("allowlisted field %s is declared nowhere outside bench/; drop it from fieldOnlyAllow", name)
		}
	}
	for name := range singleValueAllow {
		if !declared[name] {
			t.Errorf("allowlisted field %s is declared nowhere outside bench/; drop it from singleValueAllow", name)
		}
	}
}

// constOnlyAllow names, qualified by package, the typed constants that
// non-test Go only compares against and that stay anyway, each with the
// reason.
var constOnlyAllow = map[string]string{
	"exp.streamScaled": "the zero value: scenario literals that leave Stream out produce it",
	"fault.numClasses": "the bound of the loop over every fault class",
}

// constScan records, for every package-level constant of a named type
// declared outside bench/, whether non-test Go produces it: uses it other
// than as an operand of a comparison or a case of an expression switch.
type constScan struct {
	decl     map[*types.Const]string // constant -> package.name
	produced map[*types.Const]bool
}

func newConstScan() *constScan {
	return &constScan{map[*types.Const]string{}, map[*types.Const]bool{}}
}

// scan records the constants pkg declares, when declare is set, and every
// use in files that produces a constant.
func (s *constScan) scan(pkg *types.Package, info *types.Info, files []*ast.File, declare bool) {
	if declare {
		for _, name := range pkg.Scope().Names() {
			if c, ok := pkg.Scope().Lookup(name).(*types.Const); ok {
				if _, named := c.Type().(*types.Named); named {
					s.decl[c] = pkg.Name() + "." + name
				}
			}
		}
	}
	// compared holds the identifiers that only take part in a comparison.
	compared := map[*ast.Ident]bool{}
	mark := func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			compared[e] = true
		case *ast.SelectorExpr:
			compared[e.Sel] = true
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				switch n.Op {
				case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
					mark(n.X)
					mark(n.Y)
				}
			case *ast.SwitchStmt:
				if n.Tag != nil {
					for _, cc := range n.Body.List {
						for _, e := range cc.(*ast.CaseClause).List {
							mark(e)
						}
					}
				}
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		if c, ok := obj.(*types.Const); ok && !compared[id] {
			s.produced[c] = true
		}
	}
}

// check fails on every declared constant that no non-test Go produces,
// unless constOnlyAllow names it.
func (s *constScan) check(t *testing.T, fset *token.FileSet) {
	declared := map[string]bool{}
	var dead []string
	for c, name := range s.decl {
		declared[name] = true
		if !s.produced[c] && constOnlyAllow[name] == "" {
			dead = append(dead, fmt.Sprintf("%s: constant %s: no non-test Go produces it, only compares against it", fset.Position(c.Pos()), name))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
	for name := range constOnlyAllow {
		if !declared[name] {
			t.Errorf("allowlisted constant %s is declared nowhere outside bench/; drop it from constOnlyAllow", name)
		}
	}
}
