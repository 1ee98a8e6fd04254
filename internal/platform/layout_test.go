package platform

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// maxSourceLines caps every non-test source file of the package.
const maxSourceLines = 800

// lockOwners maps each state mutex, as the selector that locks it, to the
// one file that may: the state mutex guarding the lease and audit state,
// and the participant directory's.
var lockOwners = map[string]string{
	"stateMu":  "lease.go",
	"ident.mu": "ident.go",
}

// TestLockDomainLayout keeps every critical section in one file: no non-test
// source file of the package is over maxSourceLines lines, and each state
// mutex is locked only in its owner's file (DESIGN.md §11).
func TestLockDomainLayout(t *testing.T) {
	fset := token.NewFileSet()
	for name, f := range parseSources(t, fset, ".") {
		if n := fset.File(f.Pos()).LineCount(); n > maxSourceLines {
			t.Errorf("%s is %d lines, over %d", name, n, maxSourceLines)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if mu := lockedMutex(call); mu != "" && name != lockOwners[mu] {
						t.Errorf("%s: %s locks %s outside %s", fset.Position(call.Pos()), fn.Name.Name, mu, lockOwners[mu])
					}
				}
				return true
			})
		}
	}
}

// clockWaiters are the functions that may wait on the clock, each for a
// time that is its subject: the speed model's compute time, the reconnect
// backoffs, the no_work wait the supervisor asked for, a parked lease's
// bound and the sweeper's ticker. Anything else waits on the signal that
// ends its wait.
var clockWaiters = map[string]bool{
	"workDelay":        true,
	"RunWorker":        true,
	"RunShardedWorker": true,
	"leaseLoop":        true,
	"leaseBatch":       true,
	"every":            true,
}

// TestNoPolls: every time.Sleep, After, AfterFunc, Tick, NewTimer and
// NewTicker call in the package's non-test source sits in a clockWaiter.
func TestNoPolls(t *testing.T) {
	fset := token.NewFileSet()
	for _, f := range parseSources(t, fset, ".") {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || clockWaiters[fn.Name.Name] {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					switch w := timeCall(call); w {
					case "Sleep", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker":
						t.Errorf("%s: %s calls time.%s; wait on a signal, or add it to clockWaiters", fset.Position(call.Pos()), fn.Name.Name, w)
					}
				}
				return true
			})
		}
	}
}

// clockReaders are the functions that may read the clock, each with its
// file: the connection edge (one reading per request) and its IO
// deadlines, the sweep's ticker (Start), the committer, the restore timer
// in construction, the cluster's merge timer, the worker client, and
// leaseBatch's park wake and lease_wait timer. Everything else, the rest of
// lease.go included, takes its time from its caller.
var clockReaders = map[string]string{
	"serve":         "conn.go",
	"beforeRecv":    "conn.go",
	"flushLocked":   "conn.go",
	"Start":         "server.go",
	"commitWindow":  "groupcommit.go",
	"newSupervisor": "server.go",
	"Aggregate":     "cluster.go",
	"flush":         "client.go",
	"roundTrip":     "client.go",
	"recvLease":     "client.go",
	"settle":        "client.go",
	"leaseLoop":     "client.go",
	"leaseBatch":    "lease.go",
}

// maxClockReads caps the time.Now calls in the package's non-test source.
const maxClockReads = 10

// TestClockReads: every time.Now and time.Since call in the package's
// non-test source sits in a clockReader, in that reader's file, and there
// are at most maxClockReads time.Now calls.
func TestClockReads(t *testing.T) {
	fset := token.NewFileSet()
	reads := 0
	for name, f := range parseSources(t, fset, ".") {
		for _, decl := range f.Decls {
			fn := "" // a package-level declaration
			if d, ok := decl.(*ast.FuncDecl); ok {
				fn = d.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch r := timeCall(call); r {
				case "Now":
					reads++
					fallthrough
				case "Since":
					if clockReaders[fn] != name {
						t.Errorf("%s: %s calls time.%s; take now from the caller, or add it to clockReaders", fset.Position(call.Pos()), fn, r)
					}
				}
				return true
			})
		}
	}
	if reads > maxClockReads {
		t.Errorf("%d time.Now calls, over %d", reads, maxClockReads)
	}
}

// TestLeaseTableIsAValue: the lease table's package (internal/lease)
// imports no net, os, sync or sync/atomic, and calls no clock or timer in
// package time: its owner serializes it and hands it every time.
func TestLeaseTableIsAValue(t *testing.T) {
	fset := token.NewFileSet()
	for name, f := range parseSources(t, fset, "../lease") {
		for _, imp := range f.Imports {
			switch path := strings.Trim(imp.Path.Value, `"`); path {
			case "net", "os", "sync", "sync/atomic":
				t.Errorf("%s imports %s", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				switch c := timeCall(call); c {
				case "Now", "Since", "Until", "Sleep", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker":
					t.Errorf("%s: calls time.%s", fset.Position(call.Pos()), c)
				}
			}
			return true
		})
	}
}

// timeCall returns the function's name when call is to package time, and
// "" for any other call.
func timeCall(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "time" {
		return ""
	}
	return sel.Sel.Name
}

// parseSources parses the non-test source files of the package in dir, by
// file name.
func parseSources(t *testing.T, fset *token.FileSet, dir string) map[string]*ast.File {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]*ast.File)
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = f
	}
	return files
}

// lockedMutex returns the key of lockOwners that call locks (for
// X.stateMu.Lock() or X.ident.mu.Lock()), and "" for any other call.
func lockedMutex(call *ast.CallExpr) string {
	lock, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || lock.Sel.Name != "Lock" {
		return ""
	}
	mu, ok := lock.X.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	keys := []string{mu.Sel.Name}
	if dom, ok := mu.X.(*ast.SelectorExpr); ok {
		keys = append(keys, dom.Sel.Name+"."+mu.Sel.Name)
	}
	for _, key := range keys {
		if _, ok := lockOwners[key]; ok {
			return key
		}
	}
	return ""
}
