// Regrowth guards for internal/: every declaration there must have a
// caller outside test files, and every exported struct field a writer. All
// packages live under internal/, so only this module's commands, benchmark
// driver and the packages themselves can call them; a declaration none of
// them references, or a field none of them sets, is dead weight that the
// tests alone keep alive. Examples do not count as callers or writers:
// they should show API that production code uses, not keep API alive on
// their own.
package spothost

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptUnused names the internal/ declarations that no production code calls
// but tests use to check other production code: reference answers and
// inspection hooks. Keys are "pkg.Name" or "pkg.Type.Member"; each value is
// the reason the declaration stays.
var keptUnused = map[string]string{
	"cloud.Instance.Reason":            "lets provider tests check why an instance terminated",
	"cloud.Instance.RunningAt":         "lets the billing oracle step instance-hours from boot",
	"cloud.Instance.TerminatedAt":      "lets the billing oracle find the hour a revocation cut short",
	"forecast.DecayingMoments.Mean":    "pins the decay arithmetic that Std shares",
	"forecast.TrailingStd":             "sampled reference for DecayingMoments.Std",
	"market.Envelope.At":               "binary-search oracle for the envelope cursor",
	"market.Envelope.End":              "bounds the query times of the envelope oracle tests",
	"market.Trace.NextChangeAfter":     "drives the per-market event chains the cloud price clock is checked against",
	"obs.Recorder.Label":               "lets collector tests check scoped run labels",
	"sched.Portfolio.Provider":         "lets tests inspect the shared provider",
	"sched.Portfolio.Reports":          "lets tests check per-member reports",
	"sched.Scheduler.Phase":            "lets fork tests check the migration state machine",
	"sched.Scheduler.Stopped":          "lets lifecycle tests check that a scheduler halted",
	"sim.Engine.Pending":               "lets engine tests check the event queue's size",
	"sim.Engine.Processed":             "lets engine and cancellation tests count executed events",
	"sim.Engine.Run":                   "drains the queue in the engine's ordering tests",
	"sim.Engine.SetCancelPollInterval": "lets cancellation tests bound the events a canceled run executes",
	"sim.Engine.Stop":                  "lets engine tests halt a run from inside an event",
	"trace.Recorder.Spans":             "lets tests inspect span bookkeeping and scheduler sequences",
}

// keptUnset names the exported internal/ struct fields that no production
// code writes but tests set to reach code the defaults never run. Keys are
// "pkg.Type.Field"; each value is the reason the field stays.
var keptUnset = map[string]string{
	"sweep.Spec.Universe": "lets TestPruneDominatedSweep substitute an engineered universe",
}

// satisfiedStd lists the standard-library interfaces whose methods a module
// type may implement without any module code calling them by name.
var satisfiedStd = []struct{ pkg, name string }{
	{"fmt", "Stringer"},
	{"encoding", "TextMarshaler"},
	{"encoding", "TextUnmarshaler"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"net/http", "Handler"},
	{"net/http", "ResponseWriter"},
	{"net/http", "Flusher"},
	{"math/rand", "Source64"},
}

const modulePath = "spothost"

func TestNoUnusedInternalDecls(t *testing.T) {
	u, err := loadModule([]string{"cmd", "internal", "perfbench"})
	if err != nil {
		t.Fatal(err)
	}
	unused, err := u.unusedInternal()
	if err != nil {
		t.Fatal(err)
	}
	reportFindings(t, unused, keptUnused, "keptUnused", "unused internal/ declaration",
		"has no non-test reference: delete it, or list it in keptUnused if tests use it as an oracle")
}

// TestNoTestOnlyFields fails on exported fields of exported internal/
// structs that no non-test code writes: in production such a field is
// always zero, so it is a named constant with a test-only knob attached.
// Fields with a struct tag are exempt, because a decoder writes them.
func TestNoTestOnlyFields(t *testing.T) {
	u, err := loadModule([]string{"cmd", "internal", "perfbench"})
	if err != nil {
		t.Fatal(err)
	}
	reportFindings(t, u.unsetFields(), keptUnset, "keptUnset", "unset internal/ field",
		"is never written outside tests: make it a constant, or list it in keptUnset if tests need to set it")
}

// reportFindings fails t on every found key (mapped to its position) that
// kept does not list, and on every kept entry that names nothing found.
func reportFindings(t *testing.T, found, kept map[string]string, keptName, what, fix string) {
	t.Helper()
	var stale []string
	for key := range kept {
		if _, ok := found[key]; ok {
			delete(found, key)
		} else {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("%s entry %q names no %s: drop it", keptName, key, what)
	}
	keys := make([]string, 0, len(found))
	for key := range found {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		t.Errorf("%s: %s %s", found[key], key, fix)
	}
}

// module is the type-checked non-test source of the module's packages.
type module struct {
	fset  *token.FileSet
	pkgs  map[string]*types.Package // import path -> package
	files map[string][]*ast.File
	info  *types.Info // shared by every package
	std   types.Importer
}

// loadModule parses the non-test Go files under roots, with the default
// build context's tags, and type-checks them against export data for the
// standard library.
func loadModule(roots []string) (*module, error) {
	m := &module{
		fset:  token.NewFileSet(),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	stdImports := map[string]bool{}
	for _, s := range satisfiedStd {
		stdImports[s.pkg] = true
	}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			bp, err := build.Default.ImportDir(dir, 0)
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			} else if err != nil {
				return err
			}
			ipath := path.Join(modulePath, filepath.ToSlash(dir))
			for _, name := range bp.GoFiles {
				f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				m.files[ipath] = append(m.files[ipath], f)
			}
			for _, imp := range bp.Imports {
				if !isModulePath(imp) {
					stdImports[imp] = true
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	exports, err := stdExportData(stdImports)
	if err != nil {
		return nil, err
	}
	m.std = importer.ForCompiler(m.fset, "gc", func(p string) (io.ReadCloser, error) {
		file, ok := exports[p]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", p)
		}
		return os.Open(file)
	})
	for p := range m.files {
		if _, err := m.check(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func isModulePath(p string) bool {
	return p == modulePath || strings.HasPrefix(p, modulePath+"/")
}

// stdExportData maps each standard-library import path to its compiled
// export data, building it into the Go cache if needed.
func stdExportData(imports map[string]bool) (map[string]string, error) {
	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for p := range imports {
		args = append(args, p)
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		p, file, _ := strings.Cut(line, "\t")
		exports[p] = file
	}
	return exports, nil
}

func (m *module) Import(p string) (*types.Package, error) {
	if isModulePath(p) {
		return m.check(p)
	}
	return m.std.Import(p)
}

func (m *module) check(p string) (*types.Package, error) {
	if pkg, ok := m.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := m.files[p]
	if !ok {
		return nil, fmt.Errorf("package %s not found under the checked roots", p)
	}
	pkg, err := (&types.Config{Importer: m}).Check(p, m.fset, files, m.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", p, err)
	}
	m.pkgs[p] = pkg
	return pkg, nil
}

// unusedInternal returns the internal/ declarations with no reference from
// outside their own body, keyed as in keptUnused, with their positions.
// Checked are package-level names, methods, interface methods and
// unexported struct fields; exported fields stay because reflection-based
// encoders reach them.
func (m *module) unusedInternal() (map[string]string, error) {
	used := m.references()
	exempt, err := m.satisfyingMethods()
	if err != nil {
		return nil, err
	}
	unused := map[string]string{}
	report := func(key string, obj types.Object) {
		if !used[obj] && !exempt[obj] {
			unused[key] = m.fset.Position(obj.Pos()).String()
		}
	}
	prefix := modulePath + "/internal/"
	for p, pkg := range m.pkgs {
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		name := strings.TrimPrefix(p, prefix)
		scope := pkg.Scope()
		for _, id := range scope.Names() {
			obj := scope.Lookup(id)
			if id == "_" || id == "init" || id == "main" {
				continue
			}
			report(name+"."+id, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				report(name+"."+id+"."+named.Method(i).Name(), named.Method(i))
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); !f.Exported() && f.Name() != "_" {
						report(name+"."+id+"."+f.Name(), f)
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					report(name+"."+id+"."+u.ExplicitMethod(i).Name(), u.ExplicitMethod(i))
				}
			}
		}
	}
	return unused, nil
}

// references collects every object some non-test code refers to, outside
// the object's own function body: identifiers, embedded fields walked
// through by promotion, and the fields an unkeyed struct literal fills.
func (m *module) references() map[types.Object]bool {
	bodies := map[types.Object]ast.Node{}
	for _, files := range m.files {
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					bodies[m.info.Defs[fd.Name]] = fd
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range m.info.Uses {
		obj = origin(obj)
		if body, ok := bodies[obj]; ok && body.Pos() <= id.Pos() && id.Pos() < body.End() {
			continue
		}
		used[obj] = true
	}
	for _, sel := range m.info.Selections {
		typ := sel.Recv()
		for _, i := range sel.Index()[:len(sel.Index())-1] {
			st, ok := deref(typ).Underlying().(*types.Struct)
			if !ok {
				break
			}
			used[origin(st.Field(i))] = true
			typ = st.Field(i).Type()
		}
	}
	for _, files := range m.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || len(lit.Elts) == 0 {
					return true
				}
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
					return true
				}
				if st, ok := deref(m.info.Types[lit].Type).Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						used[origin(st.Field(i))] = true
					}
				}
				return true
			})
		}
	}
	return used
}

// unsetFields returns the exported, untagged fields of exported internal/
// struct types that no non-test code writes, keyed as in keptUnset, with
// their positions.
func (m *module) unsetFields() map[string]string {
	written := m.writtenFields()
	unset := map[string]string{}
	prefix := modulePath + "/internal/"
	for p, pkg := range m.pkgs {
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		scope := pkg.Scope()
		for _, id := range scope.Names() {
			tn, ok := scope.Lookup(id).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Exported() && st.Tag(i) == "" && !written[f] {
					unset[strings.TrimPrefix(p, prefix)+"."+id+"."+f.Name()] = m.fset.Position(f.Pos()).String()
				}
			}
		}
	}
	return unset
}

// writtenFields collects the struct fields some non-test code writes: the
// fields a composite literal fills (by key, or all of them when unkeyed),
// and every field on the path of an assignment's left-hand side, an
// increment or decrement, or an address taken with &. A path write
// counts for each field it passes through, so t.Migrations.Forced += n
// writes both Migrations and Forced.
func (m *module) writtenFields() map[types.Object]bool {
	written := map[types.Object]bool{}
	writePath := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				sel, ok := m.info.Selections[x]
				if !ok || sel.Kind() != types.FieldVal {
					return
				}
				typ := sel.Recv()
				for _, i := range sel.Index() {
					st, ok := deref(typ).Underlying().(*types.Struct)
					if !ok {
						break
					}
					written[origin(st.Field(i))] = true
					typ = st.Field(i).Type()
				}
				e = x.X
			default:
				return
			}
		}
	}
	for _, files := range m.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := deref(m.info.Types[n].Type).Underlying().(*types.Struct)
					if !ok || len(n.Elts) == 0 {
						break
					}
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := 0; i < st.NumFields(); i++ {
							written[origin(st.Field(i))] = true
						}
						break
					}
					for _, elt := range n.Elts {
						if id, ok := elt.(*ast.KeyValueExpr).Key.(*ast.Ident); ok {
							written[origin(m.info.Uses[id])] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						writePath(lhs)
					}
				case *ast.IncDecStmt:
					writePath(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						writePath(n.X)
					}
				}
				return true
			})
		}
	}
	return written
}

// satisfyingMethods returns the methods of module types that implement an
// interface declared in the module or listed in satisfiedStd: callers reach
// them through the interface, not by name.
func (m *module) satisfyingMethods() (map[types.Object]bool, error) {
	var ifaces []*types.Interface
	var named []*types.Named
	for _, pkg := range m.pkgs {
		for _, id := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(id).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			} else {
				named = append(named, tn.Type().(*types.Named))
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, s := range satisfiedStd {
		pkg, err := m.std.Import(s.pkg)
		if err != nil {
			return nil, err
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(s.name).Type().Underlying().(*types.Interface))
	}
	exempt := map[types.Object]bool{}
	for _, n := range named {
		for _, it := range ifaces {
			if !types.Implements(n, it) && !types.Implements(types.NewPointer(n), it) {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				if obj, _, _ := types.LookupFieldOrMethod(it, false, n.Method(i).Pkg(), n.Method(i).Name()); obj != nil {
					exempt[n.Method(i)] = true
				}
			}
		}
	}
	return exempt, nil
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
