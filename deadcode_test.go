package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadCodeAllowlist names exported symbols under internal/ that may stand
// without a non-test caller, each with the reason it earns its place. Keys
// are "<package dir>.<Name>" or "<package dir>.<Type>.<Method>".
var deadCodeAllowlist = map[string]string{
	"internal/stacks.Stack.Support":                 "support bitmask for the analyser's dominance and similarity pre-filter (ROADMAP item 1)",
	"internal/experiments.Runner.Fig2bGoldenView":   "deterministic Figure 2b view pinned by testdata/*.golden",
	"internal/experiments.Runner.Fig6GoldenView":    "deterministic Figure 6 view pinned by testdata/*.golden",
	"internal/experiments.Runner.Fig13GoldenView":   "deterministic Figure 13 view pinned by testdata/*.golden",
	"internal/experiments.Fig2Result.Speedup":       "Figure 2b's speedup at n points, read by the figure tests and benchmarks",
	"internal/experiments.Fig3Result.HasHiddenPath": "Figure 3's hidden-path claim, checked by the figure tests",
	"internal/mem.Cache.Contains":                   "side-effect-free residency probe for the cache tests",
	"internal/workload.Stream":                      "whole-stream generator for tests and benchmarks; Measured is the pipeline's form",
	"internal/obs/journal.FleetLease":               "names the \"lease\" kind the fleet coordinator emits into journal records",
	"internal/obs.WithClock":                        "injected clock that pins the Chrome-trace goldens of obs and dse",
	"internal/obs/prom.Histogram.Count":             "observation count the fleet lease-wait tests read across packages",
}

// TestNoDeadExportedSymbols fails when an exported top-level name declared in
// non-test code under internal/ is referenced nowhere outside its own
// declaration. References are counted in the non-test Go of this module and
// of jobbench/. Package-level names are resolved through each file's imports;
// methods are matched by selector name, so a method counts as used when any
// selector of that name appears (conservative: it never reports a method
// that is called). Methods that implement standard-library interfaces are
// called from outside the module and are exempt.
func TestNoDeadExportedSymbols(t *testing.T) {
	files, err := parseModule(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgName := map[string]string{} // import path -> package name
	for _, f := range files {
		pkgName[f.path] = f.ast.Name.Name
	}

	type decl struct{ key, pkg, name, recv string }
	var decls []decl
	for _, f := range files {
		if !strings.HasPrefix(f.path, "repro/internal/") {
			continue
		}
		dir := strings.TrimPrefix(f.path, "repro/")
		add := func(name, recv string) {
			key := dir + "." + name
			if recv != "" {
				key = dir + "." + recv + "." + name
			}
			decls = append(decls, decl{key, f.path, name, recv})
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					add(d.Name.Name, "")
				} else if r := recvName(d.Recv); ast.IsExported(r) && !stdlibMethods[d.Name.Name] {
					add(d.Name.Name, r)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add(s.Name.Name, "")
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								add(n.Name, "")
							}
						}
					}
				}
			}
		}
	}

	// refs holds "<import path>.<Name>" for package-level references and
	// ".<Name>" for every selector name (the method match).
	refs := map[string]bool{}
	for _, f := range files {
		imports := map[string]string{} // local name -> import path
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			local := pkgName[p]
			if local == "" {
				local = p[strings.LastIndex(p, "/")+1:]
			}
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p
		}
		for _, u := range declUnits(f.ast) {
			// A declaration's references to itself (recursion, a method
			// calling a same-named method through its receiver) do not keep
			// it alive.
			self, selfMethod := u.self, u.method
			ast.Inspect(u.node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if p, ok := imports[x.Name]; ok {
							refs[p+"."+n.Sel.Name] = true
							return false
						}
					}
					if n.Sel.Name != selfMethod {
						refs["."+n.Sel.Name] = true
					}
					ast.Inspect(n.X, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok && !self[id.Name] {
							refs[f.path+"."+id.Name] = true
						}
						return true
					})
					return false
				case *ast.Ident:
					if !self[n.Name] {
						refs[f.path+"."+n.Name] = true
					}
				}
				return true
			})
		}
	}

	var dead []string
	for _, d := range decls {
		used := refs[d.pkg+"."+d.name]
		if d.recv != "" {
			used = refs["."+d.name]
		}
		switch _, allowed := deadCodeAllowlist[d.key]; {
		case !used && !allowed:
			dead = append(dead, d.key)
		case used && allowed:
			dead = append(dead, d.key+" (allowlisted but referenced; drop the entry)")
		}
	}
	for key := range deadCodeAllowlist {
		found := false
		for _, d := range decls {
			found = found || d.key == key
		}
		if !found {
			dead = append(dead, key+" (allowlisted but no longer declared; drop the entry)")
		}
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		t.Errorf("exported symbols under internal/ with no non-test reference (delete them, or allowlist with a reason):\n\t%s",
			strings.Join(dead, "\n\t"))
	}
}

// stdlibMethods are method names that standard-library interfaces call
// (fmt.Stringer, error, http.Handler, json.Marshaler, sort.Interface, ...).
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "Format": true,
}

type parsedFile struct {
	path string // import path of the file's package
	ast  *ast.File
}

// parseModule parses every non-test Go file of the module rooted at root,
// jobbench/ included, skipping testdata and hidden directories.
func parseModule(root string) ([]parsedFile, error) {
	fset := token.NewFileSet()
	var out []parsedFile
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path := "repro"
		if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
			path += "/" + dir
		}
		out = append(out, parsedFile{path, f})
		return nil
	})
	return out, err
}

// recvName returns the base type name of a method receiver.
func recvName(fl *ast.FieldList) string {
	x := fl.List[0].Type
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// declUnit is one top-level declaration (a function, or one spec of a
// type/var/const group) with the names it declares, whose uses inside the
// unit do not count as references.
type declUnit struct {
	node   ast.Node
	self   map[string]bool
	method string // the method name, for a method
}

func declUnits(f *ast.File) []declUnit {
	var out []declUnit
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			u := declUnit{node: d, self: map[string]bool{d.Name.Name: true}}
			if d.Recv != nil {
				// Inspect the signature and body only: neither the method's
				// name nor its receiver type is a use.
				u.self, u.method = map[string]bool{}, d.Name.Name
				u.node = &ast.FuncLit{Type: d.Type, Body: d.Body}
			}
			out = append(out, u)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				self := map[string]bool{}
				switch s := s.(type) {
				case *ast.TypeSpec:
					self[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						self[n.Name] = true
					}
				}
				out = append(out, declUnit{node: s, self: self})
			}
		}
	}
	return out
}
