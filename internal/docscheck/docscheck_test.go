// Package docscheck keeps the documentation tree honest: the CLI flag
// reference is cross-checked against the flag.* declarations in cmd/*/,
// every relative markdown link in README.md and docs/ must resolve, every
// test, benchmark and fuzz target they cite must exist, and so must every
// `pkg.Name` or `Type.Member` identifier they cite. The checks
// parse source — code via go/ast, docs via their markdown conventions —
// so drift fails CI instead of rotting silently.
package docscheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const repoRoot = "../.."

// declaredFlag is one flag declaration in a command's sources: either
// flag.X("name", default, usage) on the package's command line, or
// fs.XVar(&dst, "name", default, usage) on a flag.FlagSet named fs.
// Literal holds the default's source value when it is a basic literal or
// true/false; non-literal defaults (computed expressions, named constants)
// are present-checked only.
type declaredFlag struct {
	name    string
	literal string // "" when the default is not a literal
}

var flagCtors = map[string]bool{
	"String": true, "Int": true, "Bool": true, "Float64": true,
	"Uint64": true, "Int64": true, "Uint": true, "Duration": true,
}

// commandFlags parses every non-test .go file of cmd/<name> and returns
// its flag declarations in source order.
func commandFlags(t *testing.T, cmd string) []declaredFlag {
	t.Helper()
	dir := filepath.Join(repoRoot, "cmd", cmd)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	var flags []declaredFlag
	fset := token.NewFileSet()
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatalf("parsing %s: %v", e.Name(), err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// The Var forms take the destination first.
			args, ctor := call.Args, sel.Sel.Name
			if base, isVar := strings.CutSuffix(ctor, "Var"); isVar && len(args) > 0 {
				args, ctor = args[1:], base
			}
			if !flagCtors[ctor] || len(args) < 2 {
				return true
			}
			if recv, ok := sel.X.(*ast.Ident); !ok || (recv.Name != "flag" && recv.Name != "fs") {
				return true
			}
			nameLit, ok := args[0].(*ast.BasicLit)
			if !ok || nameLit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(nameLit.Value)
			if err != nil {
				return true
			}
			flags = append(flags, declaredFlag{name: name, literal: literalDefault(args[1])})
			return true
		})
	}
	if len(flags) == 0 {
		t.Fatalf("no flag declarations found in cmd/%s", cmd)
	}
	return flags
}

// literalDefault renders a flag default that the docs can be compared
// against: basic literals (with int underscores stripped, strings
// unquoted) and the true/false idents. Anything computed returns "".
func literalDefault(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.BasicLit:
		switch v.Kind {
		case token.INT:
			return strings.ReplaceAll(v.Value, "_", "")
		case token.FLOAT:
			return v.Value
		case token.STRING:
			s, err := strconv.Unquote(v.Value)
			if err != nil {
				return ""
			}
			if s == "" {
				return `""`
			}
			return s
		}
	case *ast.Ident:
		if v.Name == "true" || v.Name == "false" {
			return v.Name
		}
	}
	return ""
}

// docRow matches a flags.md table row: | `-name` | `default` | meaning |
var docRow = regexp.MustCompile("^\\|\\s*`-([^`]+)`\\s*\\|\\s*`([^`]*)`\\s*\\|")

// docFlags parses docs/flags.md into per-command flag tables, keyed by
// the `## <command>` section each row appears under.
func docFlags(t *testing.T) map[string]map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(repoRoot, "docs", "flags.md"))
	if err != nil {
		t.Fatalf("reading docs/flags.md: %v", err)
	}
	out := make(map[string]map[string]string)
	section := ""
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "## "); ok {
			section = strings.TrimSpace(rest)
			out[section] = make(map[string]string)
			continue
		}
		m := docRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if section == "" {
			t.Fatalf("docs/flags.md: flag row %q before any ## command section", line)
		}
		if _, dup := out[section][m[1]]; dup {
			t.Errorf("docs/flags.md: %s documents -%s twice", section, m[1])
		}
		out[section][m[1]] = m[2]
	}
	return out
}

// TestFlagsDocCurrent is the drift gate for docs/flags.md: every flag a
// command declares must be documented under that command's section with
// the right default, and every documented flag must exist in code.
func TestFlagsDocCurrent(t *testing.T) {
	docs := docFlags(t)
	cmdDir, err := os.ReadDir(filepath.Join(repoRoot, "cmd"))
	if err != nil {
		t.Fatalf("reading cmd/: %v", err)
	}
	var cmds []string
	for _, e := range cmdDir {
		if e.IsDir() {
			cmds = append(cmds, e.Name())
		}
	}
	if len(cmds) == 0 {
		t.Fatal("no commands under cmd/")
	}
	for _, cmd := range cmds {
		declared := commandFlags(t, cmd)
		documented, ok := docs[cmd]
		if !ok {
			t.Errorf("docs/flags.md has no ## %s section", cmd)
			continue
		}
		seen := make(map[string]bool, len(declared))
		for _, df := range declared {
			seen[df.name] = true
			got, ok := documented[df.name]
			if !ok {
				t.Errorf("cmd/%s declares -%s but docs/flags.md does not document it", cmd, df.name)
				continue
			}
			if df.literal != "" && got != df.literal {
				t.Errorf("docs/flags.md: %s -%s documents default `%s`, code declares %s",
					cmd, df.name, got, df.literal)
			}
		}
		for name := range documented {
			if !seen[name] {
				t.Errorf("docs/flags.md documents %s -%s, which cmd/%s does not declare", cmd, name, cmd)
			}
		}
	}
	for section := range docs {
		if len(docs[section]) == 0 {
			continue // prose-only section
		}
		found := false
		for _, cmd := range cmds {
			if section == cmd {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("docs/flags.md section ## %s matches no directory under cmd/", section)
		}
	}
}

// mdLink matches inline markdown link targets; bare-URL and reference
// styles are not used in this tree.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// anchorSlug reproduces GitHub's heading→anchor rule: lowercase, drop
// everything but letters/digits/spaces/hyphens, spaces to hyphens.
func anchorSlug(heading string) string {
	heading = strings.ToLower(strings.TrimSpace(heading))
	var b strings.Builder
	for _, r := range heading {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteRune('-')
		}
	}
	return b.String()
}

func headings(raw string) map[string]bool {
	out := make(map[string]bool)
	inFence := false
	for _, line := range strings.Split(raw, "\n") {
		if strings.HasPrefix(line, "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		trimmed := strings.TrimLeft(line, "#")
		if trimmed != line && strings.HasPrefix(trimmed, " ") {
			out[anchorSlug(strings.ReplaceAll(trimmed, "`", ""))] = true
		}
	}
	return out
}

// docFiles returns README.md and every docs/*.md.
func docFiles(t *testing.T) []string {
	t.Helper()
	docsGlob, err := filepath.Glob(filepath.Join(repoRoot, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(docsGlob) == 0 {
		t.Fatal("no markdown files under docs/")
	}
	return append([]string{filepath.Join(repoRoot, "README.md")}, docsGlob...)
}

// TestDocsRelativeLinks fails on any broken relative link — missing
// file or unknown heading anchor — in README.md and docs/*.md.
func TestDocsRelativeLinks(t *testing.T) {
	for _, file := range docFiles(t) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("reading %s: %v", file, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, frag, _ := strings.Cut(target, "#")
			resolved := file
			if path != "" {
				resolved = filepath.Join(filepath.Dir(file), path)
				info, err := os.Stat(resolved)
				if err != nil {
					t.Errorf("%s: broken link %q: %v", file, target, err)
					continue
				}
				if frag != "" && info.IsDir() {
					t.Errorf("%s: link %q anchors into a directory", file, target)
					continue
				}
			}
			if frag != "" && strings.HasSuffix(resolved, ".md") {
				body, err := os.ReadFile(resolved)
				if err != nil {
					t.Errorf("%s: broken link %q: %v", file, target, err)
					continue
				}
				if !headings(string(body))[frag] {
					t.Errorf("%s: link %q names an anchor %s has no heading for", file, target, resolved)
				}
			}
		}
	}
}

// TestDocsPagesExist pins the documentation tree the README links to.
func TestDocsPagesExist(t *testing.T) {
	for _, page := range []string{"architecture.md", "operations.md", "flags.md"} {
		if _, err := os.Stat(filepath.Join(repoRoot, "docs", page)); err != nil {
			t.Errorf("docs/%s: %v", page, err)
		}
	}
	readme, err := os.ReadFile(filepath.Join(repoRoot, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, page := range []string{"docs/architecture.md", "docs/operations.md", "docs/flags.md"} {
		if !strings.Contains(string(readme), page) {
			t.Errorf("README.md does not link %s", page)
		}
	}
}

// citedName matches a test, benchmark or fuzz target name as the docs
// cite it: the go test prefix followed by what go test accepts after it.
var citedName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)

// testFunc matches a top-level test, benchmark or fuzz function.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)

// TestDocsCitedNamesExist fails on any Test*, Benchmark* or Fuzz* name in
// README.md and docs/*.md that no *_test.go in the module defines. A cited
// name may be a prefix of defined ones, as a `go test -run` pattern is
// (TestSoak, FuzzDecode).
func TestDocsCitedNamesExist(t *testing.T) {
	var defined []string
	err := filepath.WalkDir(repoRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != repoRoot {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			defined = append(defined, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(defined) == 0 {
		t.Fatal("no test functions found in the module")
	}

	cited := 0
	for _, file := range docFiles(t) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("reading %s: %v", file, err)
		}
		seen := make(map[string]bool)
		for _, name := range citedName.FindAllString(string(raw), -1) {
			if seen[name] {
				continue
			}
			seen[name] = true
			cited++
			if !slices.ContainsFunc(defined, func(d string) bool { return strings.HasPrefix(d, name) }) {
				t.Errorf("%s cites %s, which no *_test.go defines or begins", file, name)
			}
		}
	}
	t.Logf("%d cited names checked against %d test functions", cited, len(defined))
}

// declIndex is what the module's non-test Go sources declare: the
// top-level names of each package (by package name; main is left out),
// and the members of each type (by type name, across packages) — its
// fields and methods, and the types it embeds or aliases, whose members
// it promotes.
type declIndex struct {
	pkgs    map[string]map[string]bool
	members map[string]map[string]bool
	embeds  map[string][]string
}

// typeName is the name a type expression declares or embeds: T, *T,
// pkg.T and T[P] all name T.
func typeName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.StarExpr:
		return typeName(v.X)
	case *ast.SelectorExpr:
		return v.Sel.Name
	case *ast.IndexExpr:
		return typeName(v.X)
	case *ast.IndexListExpr:
		return typeName(v.X)
	}
	return ""
}

func (d *declIndex) member(typ, name string) {
	if d.members[typ] == nil {
		d.members[typ] = make(map[string]bool)
	}
	d.members[typ][name] = true
}

// fields records a struct's or interface's members; an embedded one is
// both a member (a.Base) and a source of promoted members (a.Field).
func (d *declIndex) fields(typ string, list *ast.FieldList) {
	for _, f := range list.List {
		for _, n := range f.Names {
			d.member(typ, n.Name)
		}
		if len(f.Names) == 0 {
			if emb := typeName(f.Type); emb != "" {
				d.member(typ, emb)
				d.embeds[typ] = append(d.embeds[typ], emb)
			}
		}
	}
}

// indexDecls parses every non-test .go file under the repo root.
func indexDecls(t *testing.T) *declIndex {
	t.Helper()
	d := &declIndex{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]string{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(repoRoot, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != repoRoot && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		top := d.pkgs[pkg]
		if top == nil && pkg != "main" {
			top = make(map[string]bool)
			d.pkgs[pkg] = top
		}
		declare := func(name string) {
			if top != nil {
				top[name] = true
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					declare(decl.Name.Name)
				} else if recv := typeName(decl.Recv.List[0].Type); recv != "" {
					d.member(recv, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						name := s.Name.Name
						declare(name)
						d.member(name, "") // a type with no members is still a type
						switch ty := s.Type.(type) {
						case *ast.StructType:
							d.fields(name, ty.Fields)
						case *ast.InterfaceType:
							d.fields(name, ty.Methods)
						default:
							if s.Assign != 0 {
								d.embeds[name] = append(d.embeds[name], typeName(ty))
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declare(n.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// hasMember reports whether a type of that name declares or promotes name.
func (d *declIndex) hasMember(typ, name string) bool {
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(ty string) bool {
		if seen[ty] {
			return false
		}
		seen[ty] = true
		if d.members[ty][name] {
			return true
		}
		return slices.ContainsFunc(d.embeds[ty], walk)
	}
	return walk(typ)
}

// resolves reports whether a dotted citation names a declared identifier,
// and whether it is a citation of this repo's code at all: the first part
// must be a repo package (pkg.Name, pkg.Type.Member) or a repo type
// (Type.Member).
func (d *declIndex) resolves(parts []string) (ok, cited bool) {
	if top, isPkg := d.pkgs[parts[0]]; isPkg {
		cited = true
		if top[parts[1]] && (len(parts) == 2 || d.hasMember(parts[1], parts[2])) {
			return true, true
		}
	}
	if _, isType := d.members[parts[0]]; isType {
		cited = true
		if d.hasMember(parts[0], parts[1]) {
			return true, true
		}
	}
	return false, cited
}

// citedIdent matches a code span holding nothing but a dotted Go
// identifier chain of two or three parts, optionally called: `core.Serve`,
// `wire.Decoder.ResetStream`, `FedAvgServer.W`, `Config.Validate()`.
var citedIdent = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*){1,2})(?:\\(\\))?`")

// TestDocsCitedIdentifiersExist fails on any `pkg.Name`, `pkg.Type.Member`
// or `Type.Member` code span in README.md and docs/*.md that names no
// declared identifier of this module — a field, method or top-level name
// deleted or renamed under the docs. Members promoted through embedding
// count as declared. Spans whose first part is neither a repo package nor
// a repo type (`math.Log`, `tenants.json`) are not citations of this code.
func TestDocsCitedIdentifiersExist(t *testing.T) {
	d := indexDecls(t)
	checked := 0
	for _, file := range docFiles(t) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("reading %s: %v", file, err)
		}
		seen := make(map[string]bool)
		for _, m := range citedIdent.FindAllStringSubmatch(string(raw), -1) {
			if seen[m[1]] {
				continue
			}
			seen[m[1]] = true
			ok, cited := d.resolves(strings.Split(m[1], "."))
			if cited {
				checked++
			}
			if cited && !ok {
				t.Errorf("%s cites `%s`, which no non-test Go source declares", file, m[1])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no identifier citations found in the docs")
	}
	t.Logf("%d cited identifiers resolved against %d packages", checked, len(d.pkgs))
}
