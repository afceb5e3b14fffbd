package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// LockOrder enforces a declared lock hierarchy with a may-hold-set
// dataflow over each function's CFG. The hierarchy is declared in
// source, on the mutex declarations themselves:
//
//	adminMu sync.Mutex //hsd:lockrank adminMu 10
//
// Lower rank = acquired earlier (outermost). Acquiring a ranked lock
// while any ranked lock of a *higher* rank may be held inverts the
// hierarchy and is reported, with the full acquisition chain when the
// inner acquisition happens in a callee (summaries are interprocedural
// within a package, walked to fixpoint).
// Re-acquiring a lock that may already be held is reported too (plain
// Mutex self-deadlock); a repeated RLock is tolerated.
//
// Only annotated locks participate: the analyzer is a hierarchy
// checker, not a general deadlock prover. Unlock/RUnlock remove from
// the may-hold set; a deferred Unlock holds to function exit, which is
// exactly the conservative answer a may-analysis wants.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "ranked locks (//hsd:lockrank) must be acquired in declared order",
	Run:  runLockOrder,
}

const lockRankDirective = "hsd:lockrank"

// rankedLock is one annotated mutex (package var or struct field).
type rankedLock struct {
	name string
	rank int
}

// lockRanks collects every //hsd:lockrank-annotated declaration in the
// program: package-level vars and struct fields.
func lockRanks(prog *Program, r *Reporter) map[types.Object]rankedLock {
	ranks := map[types.Object]rankedLock{}
	record := func(cg *ast.CommentGroup, objs ...types.Object) {
		if cg == nil {
			return
		}
		for _, c := range cg.List {
			body, ok := directiveBody(c.Text, lockRankDirective)
			if !ok {
				continue
			}
			fields := strings.Fields(body)
			if len(fields) != 2 {
				r.Reportf(c.Pos(), "malformed %s directive: want `//%s <name> <rank>`", lockRankDirective, lockRankDirective)
				continue
			}
			rank, err := strconv.Atoi(fields[1])
			if err != nil {
				r.Reportf(c.Pos(), "malformed %s rank %q: %v", lockRankDirective, fields[1], err)
				continue
			}
			for _, obj := range objs {
				if obj != nil {
					ranks[obj] = rankedLock{name: fields[0], rank: rank}
				}
			}
		}
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ValueSpec:
					var objs []types.Object
					for _, name := range n.Names {
						objs = append(objs, pkg.Info.Defs[name])
					}
					record(n.Doc, objs...)
					record(n.Comment, objs...)
				case *ast.Field:
					var objs []types.Object
					for _, name := range n.Names {
						objs = append(objs, pkg.Info.Defs[name])
					}
					record(n.Doc, objs...)
					record(n.Comment, objs...)
				}
				return true
			})
		}
	}
	return ranks
}

// lockOpKind classifies a mutex method call.
type lockOpKind int

const (
	lockAcquire lockOpKind = iota
	lockAcquireRead
	lockRelease
	lockReleaseRead
)

// lockOp resolves call to (ranked lock object, operation) if it is a
// Lock/RLock/TryLock/Unlock/RUnlock on an annotated mutex.
func lockOp(info *types.Info, ranks map[types.Object]rankedLock, call *ast.CallExpr) (types.Object, lockOpKind, bool) {
	recv, name := recvOf(call)
	if recv == nil {
		return nil, 0, false
	}
	var op lockOpKind
	switch name {
	case "Lock", "TryLock":
		op = lockAcquire
	case "RLock", "TryRLock":
		op = lockAcquireRead
	case "Unlock":
		op = lockRelease
	case "RUnlock":
		op = lockReleaseRead
	default:
		return nil, 0, false
	}
	obj := terminalObj(info, recv)
	if obj == nil {
		return nil, 0, false
	}
	if _, ok := ranks[obj]; !ok {
		return nil, 0, false
	}
	return obj, op, true
}

// holdSet is the dataflow fact: may-held ranked locks → mode bits.
type holdSet map[types.Object]uint8

const (
	holdRead  uint8 = 1
	holdWrite uint8 = 2
)

type holdLattice struct{}

func (holdLattice) Bottom() holdSet { return holdSet{} }
func (holdLattice) Join(a, b holdSet) holdSet {
	out := make(holdSet, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] |= v
	}
	return out
}
func (holdLattice) Equal(a, b holdSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
func (holdLattice) Clone(a holdSet) holdSet {
	out := make(holdSet, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// loSummary is one function's interprocedural summary: the ranked locks
// it may acquire (directly or transitively) and, per lock, the call
// chain that first reaches the acquisition.
type loSummary map[types.Object][]string

func runLockOrder(prog *Program, r *Reporter) {
	ranks := lockRanks(prog, r)
	if len(ranks) == 0 {
		return
	}
	for _, pkg := range prog.Packages {
		runLockOrderPkg(prog, pkg, ranks, r)
	}
}

func runLockOrderPkg(prog *Program, pkg *Package, ranks map[types.Object]rankedLock, r *Reporter) {
	funcs := pkg.FuncDecls()

	// Direct acquisitions per function (ignoring nested function
	// literals: a closure runs on its own schedule).
	direct := map[types.Object]loSummary{}
	calls := map[types.Object][]types.Object{}
	for obj, fd := range funcs {
		s := loSummary{}
		walkBodyCalls(fd.Body, func(call *ast.CallExpr) {
			if lock, op, ok := lockOp(pkg.Info, ranks, call); ok {
				if op == lockAcquire || op == lockAcquireRead {
					if _, seen := s[lock]; !seen {
						s[lock] = []string{fd.Name.Name}
					}
				}
				return
			}
			if callee := funcObj(pkg.Info, call); callee != nil && callee.Pkg() == pkg.Types {
				calls[obj] = append(calls[obj], callee)
			}
		})
		direct[obj] = s
	}

	// Fixpoint: fold callee summaries (and their chains) into callers.
	sums := map[types.Object]loSummary{}
	for obj, s := range direct {
		c := loSummary{}
		for l, chain := range s {
			c[l] = chain
		}
		sums[obj] = c
	}
	for changed := true; changed; {
		changed = false
		for obj := range funcs {
			for _, callee := range calls[obj] {
				cs, ok := sums[callee]
				if !ok {
					continue
				}
				for l, chain := range cs {
					if _, seen := sums[obj][l]; !seen {
						sums[obj][l] = append([]string{funcs[obj].Name.Name}, chain...)
						changed = true
					}
				}
			}
		}
	}

	lat := holdLattice{}
	for _, fd := range funcs {
		g := prog.CFGOf(fd)
		tr := func(stmt ast.Stmt, in holdSet) holdSet {
			walkStmtCalls(stmt, func(call *ast.CallExpr) {
				lock, op, ok := lockOp(pkg.Info, ranks, call)
				if !ok {
					return
				}
				switch op {
				case lockAcquire:
					in[lock] |= holdWrite
				case lockAcquireRead:
					in[lock] |= holdRead
				case lockRelease, lockReleaseRead:
					delete(in, lock)
				}
			})
			return in
		}
		ins := ForwardSolve(g, lat, tr, holdSet{})

		// Reporting pass: replay each block from its stable IN fact,
		// checking every acquisition and every same-package call against
		// the may-hold set at that point.
		reported := map[string]bool{}
		report := func(pos token.Pos, format string, args ...any) {
			msg := fmt.Sprintf(format, args...)
			key := fmt.Sprintf("%d:%s", pos, msg)
			if !reported[key] {
				reported[key] = true
				r.Reportf(pos, "%s", msg)
			}
		}
		for _, b := range g.Blocks {
			if !g.Reachable(b) {
				continue
			}
			held := lat.Clone(ins[b])
			for _, stmt := range b.Stmts {
				walkStmtCalls(stmt, func(call *ast.CallExpr) {
					if lock, op, ok := lockOp(pkg.Info, ranks, call); ok {
						switch op {
						case lockAcquire, lockAcquireRead:
							rl := ranks[lock]
							for h, mode := range held {
								hr := ranks[h]
								if h == lock {
									if op == lockAcquireRead && mode == holdRead {
										continue // repeated RLock: legal
									}
									report(call.Pos(), "reacquiring %s (rank %d) while it may already be held: self-deadlock", rl.name, rl.rank)
									continue
								}
								if hr.rank > rl.rank {
									report(call.Pos(), "acquiring %s (rank %d) while holding %s (rank %d): the declared hierarchy wants %s before %s",
										rl.name, rl.rank, hr.name, hr.rank, rl.name, hr.name)
								} else if hr.rank == rl.rank {
									report(call.Pos(), "acquiring %s while holding %s: equal rank %d gives no safe order between them",
										rl.name, hr.name, rl.rank)
								}
							}
							switch op {
							case lockAcquire:
								held[lock] |= holdWrite
							case lockAcquireRead:
								held[lock] |= holdRead
							}
						case lockRelease, lockReleaseRead:
							delete(held, lock)
						}
						return
					}
					callee := funcObj(pkg.Info, call)
					if callee == nil || callee.Pkg() != pkg.Types {
						return
					}
					cs, ok := sums[callee]
					if !ok || len(cs) == 0 || len(held) == 0 {
						return
					}
					for l, chain := range cs {
						rl := ranks[l]
						for h := range held {
							if h == l {
								// The callee re-acquiring a held lock is a
								// real deadlock too, but without callee-side
								// context the direct re-acquire check above
								// is the authoritative report; stay silent
								// unless ranks also invert.
								continue
							}
							hr := ranks[h]
							if hr.rank > rl.rank {
								report(call.Pos(), "call acquires %s (rank %d) while holding %s (rank %d); acquisition chain: %s",
									rl.name, rl.rank, hr.name, hr.rank, strings.Join(append(chain, rl.name), " -> "))
							}
						}
					}
				})
			}
		}
	}
}

// walkBodyCalls visits every call expression in a function body in
// source order, skipping nested function literals (their bodies run on
// their own goroutine/schedule, not inline).
func walkBodyCalls(body *ast.BlockStmt, visit func(*ast.CallExpr)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			visit(n)
		}
		return true
	})
}

// walkStmtCalls is walkBodyCalls for one statement, additionally
// skipping defer statements: a deferred Unlock runs at exit, so it must
// not clear the may-hold set mid-body, and a deferred acquisition is
// not an acquisition at this program point.
func walkStmtCalls(stmt ast.Stmt, visit func(*ast.CallExpr)) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			visit(n)
		}
		return true
	})
}
