//go:build linkprobe

// The link probe: production code is only what a binary links. It builds
// every main package of the module and of the nested bench module with
// inlining off, lists each binary's text symbols with `go tool nm`, parses
// every non-test file under internal/ with go/parser, and fails on a
// declared function that no binary links and no allowlist entry names. It
// also fails when a binary depends on internal/simtest, the one package that
// exists only for tests (and which the production line count excludes).
//
// Run it with:
//
//	go test -tags linkprobe -run TestLinkProbe -count 1 .
package fdip

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// testOnlyPackage is the one internal package production code never links.
const testOnlyPackage = "fdip/internal/simtest"

// linkAllowlist names production functions that no binary links but that
// stay, each with the reason. Keys are normalised symbols (see normalise).
var linkAllowlist = map[string]string{
	"fdip/internal/core.(*Processor).Run":       "public API of a kept type: fdip.Simulator.Run",
	"fdip/internal/core.(*Processor).Now":       "public API of a kept type: fdip.Simulator.Cycle",
	"fdip/internal/core.(*Processor).Committed": "public API of a kept type: fdip.Simulator.Committed",
	"fdip/internal/engine.(*Plan).Set":          "public API of a kept type: fdip.Plan",
	"fdip/internal/engine.(*Plan).Append":       "public API of a kept type: fdip.Plan",
	"fdip/internal/engine.WithImageCache":       "public API: fdip.WithImageCache",
	"fdip/internal/program.(*Image).BehaviorAt": "public API of a kept type: fdip.Image",
	"fdip/internal/program.(*Image).KindCounts": "public API of a kept type: fdip.Image",
	"fdip/internal/program.(*Image).FuncOf":     "public API of a kept type: fdip.Image",
	"fdip/internal/stats.(*Table).NumRows":      "read by the stats, experiments and root benchmark tests; a method cannot move into another package's tests",
}

// mainPackage is one binary to build: its import path and the module
// directory to build it from.
type mainPackage struct{ dir, path string }

func TestLinkProbe(t *testing.T) {
	mains := listMains(t, ".")
	mains = append(mains, listMains(t, "bench")...)
	if len(mains) < 2 {
		t.Fatalf("found %d main packages; the probe needs the module's binaries", len(mains))
	}

	linked := map[string]bool{}
	out := t.TempDir()
	for i, m := range mains {
		if deps := goList(t, m.dir, "-deps", m.path); slices.Contains(deps, testOnlyPackage) {
			t.Errorf("%s depends on %s, which is test-only", m.path, testOnlyPackage)
		}
		bin := filepath.Join(out, fmt.Sprintf("bin%d", i))
		run(t, m.dir, "go", "build", "-gcflags=all=-l", "-o", bin, m.path)
		for _, sym := range textSymbols(t, bin) {
			linked[normalise(sym)] = true
		}
	}

	declared := declaredFuncs(t, "internal")
	var dead []string
	for _, d := range declared {
		if linkedAny(linked, d.symbols) {
			continue
		}
		if _, ok := linkAllowlist[d.symbols[0]]; ok {
			continue
		}
		dead = append(dead, fmt.Sprintf("%s (%s)", d.symbols[0], d.pos))
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no binary links %s: delete it, move it into the _test.go files that use it, or allowlist it with a reason", d)
	}
	for sym := range linkAllowlist {
		switch {
		case !declaredSymbol(declared, sym):
			t.Errorf("allowlist entry %s names no declared function", sym)
		case linked[sym]:
			t.Errorf("allowlist entry %s names a function a binary links; drop the entry", sym)
		}
	}
	t.Logf("%d binaries, %d production functions, %d linked symbols", len(mains), len(declared), len(linked))
}

// listMains lists the main packages of the module rooted at dir.
func listMains(t *testing.T, dir string) []mainPackage {
	var ms []mainPackage
	for _, p := range goList(t, dir, "-f", "{{if eq .Name \"main\"}}{{.ImportPath}}{{end}}", "./...") {
		ms = append(ms, mainPackage{dir: dir, path: p})
	}
	return ms
}

func goList(t *testing.T, dir string, args ...string) []string {
	out := run(t, dir, "go", append([]string{"list"}, args...)...)
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if l = strings.TrimSpace(l); l != "" {
			lines = append(lines, l)
		}
	}
	return lines
}

func run(t *testing.T, dir, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s (in %s): %v\n%s", name, strings.Join(args, " "), dir, err, stderr.String())
	}
	return string(out)
}

// nmLine is one `go tool nm` record: an optional address, a one-letter
// type, then the symbol name. The name runs to the end of the line, since
// generic shapes contain spaces (go.shape.struct { A int; B string }).
var nmLine = regexp.MustCompile(`^\s*(?:[0-9a-f]+\s+)?([A-Za-z])\s+(.+)$`)

// textSymbols returns the names of the code symbols linked into bin.
func textSymbols(t *testing.T, bin string) []string {
	out := run(t, ".", "go", "tool", "nm", bin)
	var syms []string
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := nmLine.FindStringSubmatch(sc.Text())
		if m != nil && (m[1] == "T" || m[1] == "t") {
			syms = append(syms, m[2])
		}
	}
	return syms
}

// normalise collapses every bracketed type-argument list to "[...]", so an
// instantiation such as pkg.(*TopK[go.shape.struct { ... }]).Add matches the
// declaration's pkg.(*TopK[...]).Add, and drops the method-value wrapper
// suffix "-fm".
func normalise(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			if depth == 0 {
				b.WriteString("[...]")
			}
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return strings.TrimSuffix(b.String(), "-fm")
}

// declaredFunc is one function declared in production code, with the
// normalised symbols any of which shows it linked (a value-receiver method
// may link only through its pointer wrapper).
type declaredFunc struct {
	symbols []string
	pos     string
}

func linkedAny(linked map[string]bool, syms []string) bool {
	for _, s := range syms {
		if linked[s] {
			return true
		}
	}
	return false
}

func declaredSymbol(ds []declaredFunc, sym string) bool {
	for _, d := range ds {
		if d.symbols[0] == sym {
			return true
		}
	}
	return false
}

// declaredFuncs parses every non-test Go file under root (the test-only
// package aside) and returns its functions and methods, init excepted.
func declaredFuncs(t *testing.T, root string) []declaredFunc {
	var ds []declaredFunc
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if e.Name() == "testdata" || "fdip/"+filepath.ToSlash(path) == testOnlyPackage {
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
		pkg := "fdip/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			ds = append(ds, declaredFunc{
				symbols: funcSymbols(pkg, fn),
				pos:     fset.Position(fn.Pos()).String(),
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// funcSymbols returns the normalised symbols under which fn can link.
func funcSymbols(pkg string, fn *ast.FuncDecl) []string {
	name := fn.Name.Name
	if fn.Type.TypeParams != nil {
		name += "[...]"
	}
	if fn.Recv == nil {
		return []string{pkg + "." + name}
	}
	typ := fn.Recv.List[0].Type
	ptr := false
	if star, ok := typ.(*ast.StarExpr); ok {
		ptr, typ = true, star.X
	}
	recv := ""
	switch x := typ.(type) {
	case *ast.Ident:
		recv = x.Name
	case *ast.IndexExpr:
		recv = x.X.(*ast.Ident).Name + "[...]"
	case *ast.IndexListExpr:
		recv = x.X.(*ast.Ident).Name + "[...]"
	}
	if ptr {
		return []string{pkg + ".(*" + recv + ")." + name}
	}
	return []string{pkg + "." + recv + "." + name, pkg + ".(*" + recv + ")." + name}
}
