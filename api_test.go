package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllow names the top-level functions and methods that no non-test
// Go calls and that stay anyway, each with the reason it stays.
var testOnlyAllow = map[string]string{
	// Observers: tests read an invariant through them.
	"BufferedBytes":    "tests observe the bytes a storage path still buffers",
	"TotalOutstanding": "tests check that every commit drained",
	"LostRanks":        "tests observe which ranks an epoch lost",
	"Invalid":          "tests observe why an epoch was invalidated",
	"Invalidated":      "tests count the epochs a loss invalidated",
	"BusyTime":         "tests check a fabric link's busy-time conservation",
	"NextFree":         "tests observe a fabric link's queue",
	"LocalTime":        "tests check a request's local completion time",
	"RunUntil":         "tests stop a kernel at a chosen time",
	"AtHook":           "tests schedule a hook at an absolute time",
	"Equal":            "tests compare payloads byte for byte",
	"InUse":            "tests check that a resource drained",
	"MaxLinkBusy":      "tests check the interconnect's link occupancy",
	"Strategies":       "tests pin the strategy registry's order",
	// The machine's topology and allocator getters.
	"Allocated":       "tests check the machine entered allocated mode",
	"Allocs":          "tests check the allocator's live slices",
	"BaseNode":        "tests check where the allocator placed a slice",
	"ContainsRank":    "tests check a slice's rank window",
	"Groups":          "tests check the dragonfly's shape",
	"RoutersPerGroup": "tests check the dragonfly's shape",
	"Leaves":          "tests check the fat tree's shape",
	"Spines":          "tests check the fat tree's shape",
	"Route":           "tests check every topology's routes",
	"TopologyNames":   "tests sweep every topology",
	"Cycles":          "tests pin the BG/P core clock",
	"ToCycles":        "tests pin the BG/P core clock",
	// Called by the standard library through an interface.
	"MarshalJSON":   "encoding/json calls it",
	"UnmarshalJSON": "encoding/json calls it",
	"String":        "fmt calls it",
	"Error":         "the error interface",
	"Unwrap":        "errors.Is and errors.As call it",
	// Leave with the partitioned kernel.
	"AfterHookCtx": "the partitioned kernel's lane hooks",
	"PartRNG":      "the partitioned kernel's per-partition streams",
	// perfbench's mpi.p2p_ns probe calls it.
	"Send": "the blocking point-to-point send",
}

// TestNoTestOnlyAPI fails on a top-level function or method, declared in
// non-test Go outside bench/, whose name no non-test Go in the module
// references (bench/ and examples/ included), unless testOnlyAllow names it.
// Such code only tests reach: move what it checks onto the live path, or
// delete it.
//
// Matching is by bare name, so a dead function whose name collides with a
// live one (a method Foo on one type and a call of Foo on another) passes.
func TestNoTestOnlyAPI(t *testing.T) {
	type decl struct{ name, pos string }
	var decls []decl
	refs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		inBench := strings.HasPrefix(filepath.ToSlash(path), "bench/")
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				ast.Inspect(dd, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						refs[id.Name] = true
					}
					return true
				})
				continue
			}
			name := fd.Name.Name
			if !inBench && name != "main" && name != "init" && name != "_" {
				decls = append(decls, decl{name, fset.Position(fd.Pos()).String()})
			}
			// A function's references to itself keep nothing alive.
			ast.Inspect(fd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id != fd.Name && id.Name != name {
					refs[id.Name] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		if !refs[d.name] && testOnlyAllow[d.name] == "" {
			dead = append(dead, d.pos+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: no non-test Go references it", d)
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
	}
	for name := range testOnlyAllow {
		if !declared[name] {
			t.Errorf("allowlisted %s is declared nowhere outside bench/; drop it from testOnlyAllow", name)
		}
	}
}
