package platform

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lockNester is the one function that may lock a state mutex outside its
// owning file: it takes lease.mu and then audit.mu (DESIGN.md §11).
const lockNester = "withLeaseAndAudit"

// maxSourceLines caps every non-test source file of the package.
const maxSourceLines = 800

// TestLockDomainLayout keeps the supervisor's lock domains apart: no
// non-test source file of the package is over maxSourceLines lines, and
// lease.mu, audit.mu and ident.mu are each locked only in their own file
// (lease.go, audit.go, ident.go), except in lockNester.
func TestLockDomainLayout(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	nesters := 0
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(src, []byte("\n")); n > maxSourceLines {
			t.Errorf("%s is %d lines, over %d", name, n, maxSourceLines)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn.Name.Name == lockNester {
				nesters++
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if d := lockedDomain(call); d != "" && name != d+".go" {
						t.Errorf("%s: %s locks %s.mu outside %s.go", fset.Position(call.Pos()), fn.Name.Name, d, d)
					}
				}
				return true
			})
		}
	}
	if nesters != 1 {
		t.Errorf("found %d functions named %s, want 1", nesters, lockNester)
	}
}

// lockedDomain returns "lease", "audit" or "ident" when call is
// X.<domain>.mu.Lock(), and "" for any other call.
func lockedDomain(call *ast.CallExpr) string {
	lock, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || lock.Sel.Name != "Lock" {
		return ""
	}
	mu, ok := lock.X.(*ast.SelectorExpr)
	if !ok || mu.Sel.Name != "mu" {
		return ""
	}
	if dom, ok := mu.X.(*ast.SelectorExpr); ok {
		switch dom.Sel.Name {
		case "lease", "audit", "ident":
			return dom.Sel.Name
		}
	}
	return ""
}
