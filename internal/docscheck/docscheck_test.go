// Package docscheck keeps the documentation tree honest: the CLI flag
// reference is cross-checked against the flag.* declarations in cmd/*/,
// every relative markdown link in README.md and docs/ must resolve, and
// every test, benchmark and fuzz target they cite must exist. The checks
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
