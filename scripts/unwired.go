//go:build ignore

// Census of what only a test can reach. It type-checks every non-test file
// of the module (go/parser + go/types, standard library only, nothing to
// download) and reports, for the packages under internal/:
//
//  1. every function and method, exported or not, that no non-test code
//     uses (a use inside its own body does not count);
//  2. every field of an exported option struct (a type named *Config,
//     *Options, *Spec or *Request) that no non-test code outside the file
//     declaring the struct sets — by a composite-literal key, an unkeyed
//     literal, an assignment, ++/-- or & through a selector. The declaring
//     file does not count because that is where defaults are filled in. A
//     struct none of whose fields is set is reported once, by its own name;
//  3. every field of a struct declared at package level that non-test code
//     only ever writes: nothing is stored that nothing reads. Exempt by
//     construction are the fields of a struct carrying a json tag
//     (encoding/json reads them by reflection) and of a struct type used as
//     a map key (the map reads the whole value).
//
// Uses are resolved objects, not names, so a same-named method of another
// type hides nothing. Not reported: a method whose name is a method of an
// interface declared anywhere in the module, or of error, fmt.Stringer,
// json.(Un)Marshaler, sort.Interface or http.Handler (its caller goes through
// the interface); an exported method of a type the root package re-exports
// by alias (public API); and the harness packages named below.
//
// A gate: exit status 1 when something is found that kept below does not
// name, when a kept name is wired or gone, or when a mirrored enum is found. The list may shrink; it grows
// only by a field that a test of live behaviour reads (rule 3).
// Before it judges the module the tool runs the same census over a small
// in-memory module whose answer is known (selfTest) and refuses to go on if
// that answer is wrong.
//
// A second section lists mirrored enums: every function of type func(A) B
// and every map[A]B composite literal where A and B are defined integer types
// of two different packages under internal/ with the same number of
// constants. Such a translation copies one vocabulary into another; the
// package that uses the other type should use the first one directly.
//
// Known blind spot: reflection. A method reached only through reflect (a
// template calling it by name, say) has no use the type checker can see, and
// would be reported though it is live. Nothing under internal/ is called that
// way today. A struct read whole (printed with %v, compared with ==) reads its
// fields where rule 3 cannot see it: such a field would be reported though it
// is live.
// The interface exception errs the other way: implementations of an interface
// method that nothing calls, and functions that only call each other, are
// not found.
//
// Usage: go run scripts/unwired.go     (from anywhere in the module; markdown on stdout)
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// kept: test-only on purpose, each with the reason.
var kept = map[string]string{
	// Code waiting for its caller, and a reference implementation.
	"storage.Table.Compact":       "waits for ROADMAP item 3 (compaction is not wired yet)",
	"storage.TableBuilder.Append": "row-at-a-time reference of TestEncodedPathBuildsTheSameReplica",

	// Option structs only tests build: every production caller takes the default.
	"dpu.Config":        "tests shrink the SoC (1 and 4 cores, a few KiB of DMEM) to pin scheduling order and drive the DMEM-pressure paths",
	"cluster.ShardSpec": "tests place rows by range and by a chosen hash key to reach shard pruning and the placement properties; Load(table, nil) auto-shards",

	// Fields only a test reads (rule 3), each the one place a live behaviour shows.
	"hostdb.QueryResult.TilesPruned": "the zone-pruning tests and the host pins count the tiles one query skipped; rapid.Result carries no pruning field to copy it into",
	"obs.Totals.DMSDescriptors":      "TestTrayBillsDMSDescriptors reconciles each context's traced fragments with the descriptors the whole query billed",
	"storage.ColStats.Exact":         "storage tests assert that NDV is exact after a build and turns inexact when an update unit widens the statistics",
	"storage.ColumnMeta.RLE":         "TestEncodedPathBuildsTheSameReplica compares the RLE choice of the encoded and the row-at-a-time build",

	// Read-only observers through which a test of live behaviour looks.
	"storage.Chunk.Col":            "storage layout tests (chunking, RLE choice, compaction) look at one stored vector (encoding chosen, bytes stored); production reads through Snapshot.Chunks",
	"storage.Tracker.PendingUnits": "hostdb growth_test and update_test measure the unit log that item 3 will bound",
	"obs.Registry.Values":          "counter and gauge assertions of the sched, hostdb, obs and qgen suites",
	"dpu.SoC.TotalCycles":          "the join pins of ops/pins_test.go read the SoC's summed cycles through it",
	"ops.CountSink.Rows":           "scan and filter tests count surviving rows; the Fig 10 figure uses the sink as a null sink",
	"cluster.Tray.NodeScheduler":   "shedding and cancellation tests occupy one node's admission slots",

	// Fixtures other packages' tests build tables and compare columns with.
	"storage.TableBuilder.MustBuild": "table fixtures of the plan, ops, qcomp, sqlparse and storage tests",
	"coltypes.ToInt64s":              "column comparisons in the coltypes and ops tests",

	// The instrument of TestDMEMSizeIsUpperBoundOnPoolUse (CI alloc-regression).
	"mem.TilePool.MarkHighWater": "restarts and returns the pool's usage before one tile is driven through an operator",
	"mem.TilePool.HighWater":     "the peak that tile reached, compared with the operator's DMEMSize",
}

// harness packages are test instruments whose non-test files exist for their
// own test lanes (and cmd/rapid-fuzz): what only those lanes reach is what
// the package is for.
var harness = map[string]bool{"internal/qgen": true}

// stdlibIfaceMethods: methods the standard library calls through an interface.
var stdlibIfaceMethods = []string{
	"Error", "String", "MarshalJSON", "UnmarshalJSON", // error, fmt.Stringer, json
	"Len", "Less", "Swap", // sort.Interface
	"ServeHTTP", // http.Handler
}

// loader type-checks module packages from source, sharing one types.Info;
// everything outside the module goes to std.
type loader struct {
	fset   *token.FileSet
	root   string // directory holding go.mod
	module string // module path
	std    types.Importer
	info   *types.Info
	pkgs   map[string]*types.Package
	files  map[string][]*ast.File // import path -> non-test files
}

func newLoader(root, module string, std types.Importer) *loader {
	return &loader{
		fset: token.NewFileSet(), root: root, module: module, std: std,
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	dir := filepath.Join(l.root, strings.TrimPrefix(path, l.module))
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		rel, _ := filepath.Rel(l.root, filepath.Join(dir, name))
		f, err := parser.ParseFile(l.fset, rel, mustRead(filepath.Join(dir, name)), parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return l.check(path, files)
}

func (l *loader) check(path string, files []*ast.File) (*types.Package, error) {
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[path] = p, files
	return p, nil
}

// goFiles lists the non-test Go files of dir that build here (so this file,
// which is //go:build ignore, is in no package).
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if ok {
			names = append(names, name)
		}
	}
	return names, nil
}

func mustRead(path string) []byte {
	b, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	return b
}

// finding is one declaration nothing but a test reaches.
type finding struct{ label, pos string }

// survey applies the two rules to every loaded package under internal/.
func (l *loader) survey() []finding {
	type span struct{ pos, end token.Pos }
	var (
		ifaceMethods = map[string]bool{}
		funcs        = map[*types.Func]span{}  // candidates of rule 1, with their extent
		fields       = map[*types.Var]string{} // candidates of rule 2 -> declaring file
		structOf     = map[*types.Var]string{} // field -> label of its option struct
		numFields    = map[string]int{}        // option struct label -> settable fields
		stored       = map[*types.Var]bool{}   // candidates of rule 3
		labels       = map[types.Object]string{}
		public       = l.publicTypes()
	)
	for _, m := range stdlibIfaceMethods {
		ifaceMethods[m] = true
	}
	file := func(p token.Pos) string { return l.fset.Position(p).Filename }

	// Declarations.
	for path, files := range l.files {
		internal := strings.Contains(path+"/", "/internal/") && !harness[strings.TrimPrefix(path, l.module+"/")]
		pkg := l.pkgs[path].Name()
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if t, ok := l.info.Types[it].Type.(*types.Interface); ok {
						for i := 0; i < t.NumMethods(); i++ {
							ifaceMethods[t.Method(i).Name()] = true
						}
					}
				}
				return true
			})
			if !internal {
				continue
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, _ := l.info.Defs[d.Name].(*types.Func)
					if fn == nil || d.Name.Name == "_" || d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main") {
						continue
					}
					labels[fn] = pkg + "." + d.Name.Name
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						named := namedOf(recv.Type())
						if public[named] && fn.Exported() {
							continue
						}
						labels[fn] = pkg + "." + named.Name() + "." + d.Name.Name
					}
					funcs[fn] = span{d.Pos(), d.End()}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok {
							continue
						}
						st, ok := l.info.Defs[ts.Name].Type().Underlying().(*types.Struct)
						if !ok {
							continue
						}
						label := pkg + "." + ts.Name.Name
						option := ts.Name.IsExported() && isOptionName(ts.Name.Name)
						reflected := jsonTagged(st)
						for i := 0; i < st.NumFields(); i++ {
							fd := st.Field(i)
							if fd.Embedded() || fd.Name() == "_" {
								continue
							}
							labels[fd] = label + "." + fd.Name()
							if !reflected {
								stored[fd] = true
							}
							if option {
								fields[fd], structOf[fd] = file(ts.Pos()), label
								numFields[label]++
							}
						}
					}
				}
			}
		}
	}

	// Rule 1: any resolved use outside the declaration itself wires it.
	for id, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			if s, ok := funcs[fn]; ok && (id.Pos() < s.pos || id.Pos() >= s.end) {
				delete(funcs, fn)
			}
		}
	}
	for fn := range funcs {
		if fn.Type().(*types.Signature).Recv() != nil && ifaceMethods[fn.Name()] {
			delete(funcs, fn)
		}
	}

	// Rules 2 and 3 share one walk over every place a field is set. Rule 2: a
	// set outside the declaring file wires an option field. Rule 3: a field is
	// stored for nothing when every resolved use of it is a write — a
	// composite-literal key, or the selector on the left of an assignment
	// (compound ones included: += reads only to write back) or under ++/--;
	// any other use, & included, reads it, and a struct used as a map key is
	// read as a whole by the map.
	writes := map[*ast.Ident]bool{}
	set := func(e ast.Expr, write bool) {
		var id *ast.Ident
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			id = e.Sel
		case *ast.Ident: // composite-literal key
			id = e
		default:
			return
		}
		if fd, ok := l.info.Uses[id].(*types.Var); ok && fd.IsField() {
			writes[id] = write
			if fields[fd.Origin()] != file(id.Pos()) {
				delete(fields, fd.Origin())
			}
		}
	}
	for _, files := range l.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := l.info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							set(kv.Key, true)
						} else if fd := st.Field(i).Origin(); fields[fd] != file(n.Pos()) {
							delete(fields, fd)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						set(lhs, true)
					}
				case *ast.IncDecStmt:
					set(n.X, true)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						set(n.X, false)
					}
				case *ast.MapType:
					if st, ok := l.info.Types[n.Key].Type.Underlying().(*types.Struct); ok {
						for i := 0; i < st.NumFields(); i++ {
							delete(stored, st.Field(i).Origin())
						}
					}
				}
				return true
			})
		}
	}
	for id, obj := range l.info.Uses {
		if fd, ok := obj.(*types.Var); ok && fd.IsField() && !writes[id] {
			delete(stored, fd.Origin())
		}
	}

	var out []finding
	for fn := range funcs {
		out = append(out, finding{labels[fn], l.fset.Position(fn.Pos()).String()})
	}
	for fd := range stored {
		if _, unset := fields[fd]; !unset { // rule 2 reports it already
			out = append(out, finding{labels[fd], l.fset.Position(fd.Pos()).String()})
		}
	}
	// An option struct none of whose fields is set is one finding, not one
	// per field: the struct is what only tests build.
	unset := map[string][]*types.Var{}
	for fd := range fields {
		unset[structOf[fd]] = append(unset[structOf[fd]], fd)
	}
	for label, fds := range unset {
		if len(fds) == numFields[label] {
			out = append(out, finding{label, fields[fds[0]]})
			continue
		}
		for _, fd := range fds {
			out = append(out, finding{labels[fd], l.fset.Position(fd.Pos()).String()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// mirrors lists the translations between mirrored enums: functions of type
// func(A) B and map[A]B literals, A and B defined integer types of two
// different packages under internal/ declaring as many constants each.
func (l *loader) mirrors() []finding {
	consts := map[*types.TypeName]int{}
	for _, p := range l.pkgs {
		for _, name := range p.Scope().Names() {
			if c, ok := p.Scope().Lookup(name).(*types.Const); ok {
				if n, ok := c.Type().(*types.Named); ok {
					consts[n.Obj()]++
				}
			}
		}
	}
	enum := func(t types.Type) *types.TypeName {
		n, ok := t.(*types.Named)
		if !ok || consts[n.Obj()] == 0 || !strings.Contains(n.Obj().Pkg().Path()+"/", "/internal/") {
			return nil
		}
		if b, ok := n.Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
			return nil
		}
		return n.Obj()
	}
	mirrored := func(from, to types.Type) bool {
		a, b := enum(from), enum(to)
		return a != nil && b != nil && a.Pkg() != b.Pkg() && consts[a] == consts[b]
	}
	qualify := func(p *types.Package) string { return p.Name() }
	var out []finding
	for path, files := range l.files {
		pkg := l.pkgs[path].Name()
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					fn, ok := l.info.Defs[n.Name].(*types.Func)
					if !ok {
						break
					}
					sig := fn.Type().(*types.Signature)
					if sig.Params().Len() == 1 && sig.Results().Len() == 1 && mirrored(sig.Params().At(0).Type(), sig.Results().At(0).Type()) {
						out = append(out, finding{pkg + "." + n.Name.Name, l.fset.Position(n.Pos()).String()})
					}
				case *ast.CompositeLit:
					if m, ok := l.info.Types[n].Type.(*types.Map); ok && mirrored(m.Key(), m.Elem()) {
						out = append(out, finding{types.TypeString(m, qualify) + " literal", l.fset.Position(n.Pos()).String()})
					}
				}
				return true
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// jsonTagged reports whether any field of the struct carries a json tag:
// encoding/json reads such a struct by reflection, where no use is visible.
func jsonTagged(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
			return true
		}
	}
	return false
}

func isOptionName(name string) bool {
	for _, suffix := range []string{"Config", "Options", "Spec", "Request"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// namedOf is the receiver's type name, pointer and type arguments dropped.
func namedOf(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj()
}

// publicTypes are the internal types the module's root package re-exports
// through an exported alias (type Value = storage.Value): their exported
// methods are public API, whoever calls them.
func (l *loader) publicTypes() map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	root := l.pkgs[l.module]
	if root == nil {
		return out
	}
	for _, name := range root.Scope().Names() {
		if tn, ok := root.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && tn.IsAlias() {
			if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				out[n.Obj()] = true
			}
		}
	}
	return out
}

// selfTest runs the census over a tiny in-memory module before the real one:
// a test-only method hidden (by name) behind a wired method of another type,
// an option field nothing sets and a field that is written (by a literal key,
// an assignment and +=) but never read must be reported; an interface method
// nobody calls directly, a field set from another file, a written-never-read
// field of a JSON-tagged struct and of a map-key struct must not. Then it
// checks the mirrored-enum section over two more packages.
func selfTest() error {
	l := newLoader("", "m", nil)
	parse := func(name, src string) *ast.File {
		f, err := parser.ParseFile(l.fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			fatal(err)
		}
		return f
	}
	if _, err := l.check("m/internal/a", []*ast.File{
		parse("a.go", `package a
type Options struct{ Set, Unset int }
type Shaper interface{ Area() int }
type Sq struct{ o Options; stale, side int }
type Wire struct{ Sent int "json:\"sent\"" }
type Key struct{ a int }
var seen = map[Key]Wire{}
func New(o Options) *Sq { seen[Key{a: 1}] = Wire{Sent: 1}; return &Sq{o: o, stale: 1, side: 2} }
func (s *Sq) Area() int { s.stale = 2; s.stale += s.side; return s.o.Set + s.o.Unset }
func (s *Sq) Reset()    { s.Reset() }
type Ring struct{}
func (Ring) Reset() {}`),
		parse("b.go", `package a
func Use() { Ring{}.Reset(); _ = New(Options{Set: 1}) }`),
	}); err != nil {
		return err
	}
	if _, err := l.check("m/cmd/x", []*ast.File{parse("main.go", `package main
import "m/internal/a"
func main() { a.Use() }`)}); err != nil {
		return err
	}
	var got []string
	for _, f := range l.survey() {
		got = append(got, f.label)
	}
	if want := "a.Options.Unset a.Sq.Reset a.Sq.stale"; strings.Join(got, " ") != want {
		return fmt.Errorf("self-test: census reported %q, want %q", got, want)
	}

	// Mirrored enums: a translation between two three-constant types of
	// different packages is reported, as a function and as a map literal;
	// one from six constants to five is not.
	if _, err := l.check("m/internal/p", []*ast.File{parse("p.go", `package p
type Kind int
const (A Kind = iota; B; C)
type Agg int
const (Sum Agg = iota; Min; Max; Count; Star; Avg)`)}); err != nil {
		return err
	}
	if _, err := l.check("m/internal/q", []*ast.File{parse("q.go", `package q
import "m/internal/p"
type Kind int
const (A Kind = iota; B; C)
type Agg int
const (Sum Agg = iota; Min; Max; Count; Star)
func kind(k p.Kind) Kind { return map[p.Kind]Kind{p.A: A, p.B: B, p.C: C}[k] }
func agg(a p.Agg) Agg { return map[p.Agg]Agg{p.Sum: Sum}[a] }`)}); err != nil {
		return err
	}
	got = got[:0]
	for _, f := range l.mirrors() {
		got = append(got, f.label)
	}
	if want := "map[p.Kind]q.Kind literal q.kind"; strings.Join(got, " ") != want {
		return fmt.Errorf("self-test: mirrored enums %q, want %q", got, want)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "unwired:", err)
	os.Exit(2)
}

// moduleRoot walks up from the working directory to go.mod.
func moduleRoot() (root, module string) {
	dir, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest)
				}
			}
			fatal(fmt.Errorf("%s/go.mod names no module", dir))
		}
		if dir == filepath.Dir(dir) {
			fatal(fmt.Errorf("no go.mod above the working directory"))
		}
		dir = filepath.Dir(dir)
	}
}

func main() {
	if err := selfTest(); err != nil {
		fatal(err)
	}
	root, module := moduleRoot()
	l := newLoader(root, module, importer.ForCompiler(token.NewFileSet(), "source", nil))
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name[0] == '.' || name[0] == '_' || name == "testdata") {
			return filepath.SkipDir
		}
		if names, err := goFiles(path); err != nil || len(names) == 0 {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		_, err = l.Import(strings.TrimSuffix(module+"/"+filepath.ToSlash(rel), "/."))
		return err
	})
	if err != nil {
		fatal(err)
	}

	found := map[string]bool{}
	fail := 0
	fmt.Println("### Under internal/, reached only by tests (functions, methods, option fields, fields never read)")
	fmt.Println()
	for _, f := range l.survey() {
		found[f.label] = true
		if _, ok := kept[f.label]; !ok {
			fmt.Printf("- `%s` (%s)\n", f.label, f.pos)
			fail = 1
		}
	}
	if fail == 0 {
		fmt.Println("none")
	}
	fmt.Println()
	fmt.Println("### Mirrored enums: func(A) B and map[A]B between internal integer types with as many constants")
	fmt.Println()
	mirrors := l.mirrors()
	for _, f := range mirrors {
		fmt.Printf("- `%s` (%s)\n", f.label, f.pos)
		fail = 1
	}
	if len(mirrors) == 0 {
		fmt.Println("none")
	}
	fmt.Println()
	fmt.Printf("### Kept on purpose (%d, named in scripts/unwired.go)\n\n", len(kept))
	names := make([]string, 0, len(kept))
	for k := range kept {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if found[k] {
			fmt.Printf("- `%s` — %s\n", k, kept[k])
		} else {
			fmt.Printf("- `%s` — **wired or gone: remove it from kept**\n", k)
			fail = 1
		}
	}
	os.Exit(fail)
}
