// Package escape is the static escape-audit gate of the read and
// update paths: it parses the compiler's own escape analysis
// (`go build -gcflags=-m=2`) and asserts that a declared list of
// hot-path functions — the TestLookupAllocs and TestUpdateAllocs
// surfaces, the probeScan/runScan split, and the R-LLSC cell
// operations that TestUniversalAllocs relies on — compiles with zero
// heap escapes. The alloc guards measure the paths a run happens to
// execute; this gate reads what the compiler proved about
// every path, and fails with the compiler's own escape trace when a
// refactor (the ROADMAP key-width work will churn exactly these
// functions) reintroduces one — the PR 9 regression, where a
// self-referential slice field silently moved the probe record to the
// heap, becomes a build error instead of a benchmark surprise.
//
// Noise discipline: inlined panic paths (checkKey's fmt.Sprintf
// arguments) "escape" at positions inside the hot functions without
// allocating on any non-panicking execution. The gate therefore counts
// only allocation-shaped diagnostics: locals moved to heap, and
// make/new/composite-literal/closure values escaping.
package escape

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Hot declares one package's escape-free function set.
type Hot struct {
	Pkg   string   // package pattern relative to the audit root, e.g. "./internal/hihash"
	Funcs []string // "Recv.Name" for methods, "Name" for functions
}

// HotPaths is the declared hot-path list: every lookup and update
// surface TestLookupAllocs and TestUpdateAllocs pin at zero
// allocations, plus the fixed-buffer half of the probeScan/runScan
// split; and in internal/conc the R-LLSC cell operations that work in
// place, with Universal.Apply, whose lookups TestUniversalAllocs pins
// at zero. Each package's alloc guard imports this list and fails if
// the two drift apart.
func HotPaths() []Hot {
	return []Hot{{
		Pkg: "./internal/hihash",
		Funcs: []string{
			"Set.Contains",
			"Set.displaceContains",
			"fastScan",
			"fastMatches",
			"Set.findKey",
			"Set.Insert",
			"Set.Remove",
			"Set.displaceInsert",
			"Set.displaceRemove",
			"Set.placeKey",
			"Set.placed",
		},
	}, {
		Pkg: "./internal/conc",
		Funcs: []string{
			"Cell.LLWithAbort",
			"Cell.VL",
			"Cell.RL",
			"Cell.Load",
			"Universal.Apply",
		},
	}}
}

// HotFuncs returns the declared escape-free functions of pkg (as given
// to HotPaths, e.g. "./internal/hihash"), nil if the package is not
// declared.
func HotFuncs(pkg string) []string {
	for _, h := range HotPaths() {
		if h.Pkg == pkg {
			return append([]string(nil), h.Funcs...)
		}
	}
	return nil
}

// Finding is one gate violation.
type Finding struct {
	Func   string // the hot function the escape lies in ("" for a missing function)
	Pos    string // file:line:col of the compiler diagnostic
	Detail string // the compiler's message
}

func (f Finding) String() string {
	if f.Pos == "" {
		return fmt.Sprintf("escape gate: declared hot-path function %s not found — update internal/hilint/escape.HotPaths", f.Func)
	}
	return fmt.Sprintf("%s: escape in hot-path function %s: %s", f.Pos, f.Func, f.Detail)
}

// Audit runs the gate for every declared hot path, with root as the
// module root.
func Audit(root string) ([]Finding, error) {
	var all []Finding
	for _, h := range HotPaths() {
		fs, err := AuditPackage(root, h)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	return all, nil
}

// diagRe matches one compiler diagnostic line; -m=2 repeats each
// diagnostic with a trailing colon and an indented explanation trace,
// which this anchored form skips.
var diagRe = regexp.MustCompile(`^([^\s:]+\.go):(\d+):(\d+): (.+?):?$`)

// AuditPackage compiles hot.Pkg under -m=2 and reports
// allocation-shaped escapes inside the declared functions, plus any
// declared function the package no longer defines.
func AuditPackage(root string, hot Hot) ([]Finding, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m=2", hot.Pkg)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m=2 %s: %v\n%s", hot.Pkg, err, out)
	}

	ranges, err := funcRanges(filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(hot.Pkg, "./"))))
	if err != nil {
		return nil, err
	}

	declared := map[string]bool{}
	for _, fn := range hot.Funcs {
		declared[fn] = true
	}

	var findings []Finding
	seen := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		m := diagRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if !allocationShaped(msg) {
			continue
		}
		lineNo, _ := strconv.Atoi(m[2])
		fn := enclosing(ranges, filepath.Base(m[1]), lineNo)
		if fn == "" || !declared[fn] {
			continue
		}
		pos := fmt.Sprintf("%s:%s:%s", m[1], m[2], m[3])
		if seen[pos+msg] {
			continue
		}
		seen[pos+msg] = true
		findings = append(findings, Finding{Func: fn, Pos: pos, Detail: msg})
	}

	for _, fn := range hot.Funcs {
		if !rangesDefine(ranges, fn) {
			findings = append(findings, Finding{Func: fn})
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].Pos < findings[j].Pos })
	return findings, nil
}

// allocationShaped reports whether a -m diagnostic describes a real
// heap allocation, as opposed to a panic-path interface argument
// "escaping" at an inlined call site.
func allocationShaped(msg string) bool {
	if strings.HasPrefix(msg, "moved to heap") {
		return true
	}
	subject, found := strings.CutSuffix(msg, " escapes to heap")
	if !found {
		return false
	}
	return strings.HasPrefix(subject, "make(") ||
		strings.HasPrefix(subject, "new(") ||
		strings.HasPrefix(subject, "&") ||
		strings.HasPrefix(subject, "[]") ||
		strings.Contains(subject, "literal")
}

// funcRange is one function's position span in its file.
type funcRange struct {
	file  string // base name
	name  string // Recv.Name or Name
	start int
	end   int
}

// funcRanges parses the package directory's non-test sources and
// returns every function declaration's line span.
func funcRanges(dir string) ([]funcRange, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var out []funcRange
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			out = append(out, funcRange{
				file:  name,
				name:  declName(fd),
				start: fset.Position(fd.Pos()).Line,
				end:   fset.Position(fd.End()).Line,
			})
		}
	}
	return out, nil
}

// declName renders a FuncDecl the way HotPaths spells it: a method of a
// generic type is named after the bare type, so (c *Cell[T]) RL is
// "Cell.RL".
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// enclosing returns the function whose span covers (file base, line).
func enclosing(ranges []funcRange, file string, line int) string {
	for _, r := range ranges {
		if r.file == file && r.start <= line && line <= r.end {
			return r.name
		}
	}
	return ""
}

// rangesDefine reports whether the parsed package defines fn.
func rangesDefine(ranges []funcRange, fn string) bool {
	for _, r := range ranges {
		if r.name == fn {
			return true
		}
	}
	return false
}
