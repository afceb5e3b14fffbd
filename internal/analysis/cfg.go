package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow half of the analysis engine: a
// function-level CFG built from syntax alone (no SSA, no third-party
// packages), precise enough for lockorder's may-hold sets and cheap
// enough to build for every function in the module on every lint run.
//
// Shape: basic blocks of straight-line statements connected by
// successor/predecessor edges. Control statements contribute their
// evaluated parts (an if's init and cond, a switch's tag, a select's
// comm statements) as ordinary statements of the branching block, so a
// dataflow transfer function sees every expression evaluation exactly
// once per path. Defers are not edges: they are collected per function
// (run at every exit, in reverse order), and analyzers that care apply
// them against the exit block's facts.

// Block is one basic block: straight-line statements, then a branch.
type Block struct {
	Index int
	// Kind labels the block's structural role ("entry", "if.then",
	// "for.head", "select.comm", "exit", ...) — diagnostics and tests
	// key off it; analyzers should not.
	Kind  string
	Stmts []ast.Stmt
	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	// Exit is the single synthetic exit block: every return, every
	// fall-off-the-end path, and every terminal panic flows here.
	Exit *Block
	// Defers are the function's defer statements in source order; they
	// execute at every exit in reverse order.
	Defers []*ast.DeferStmt
}

// Reachable reports whether b has a path from the entry block.
func (g *CFG) Reachable(b *Block) bool {
	seen := make([]bool, len(g.Blocks))
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[x.Index] {
			continue
		}
		seen[x.Index] = true
		if x == b {
			return true
		}
		stack = append(stack, x.Succs...)
	}
	return false
}

// BuildCFG constructs the CFG of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		g:      &CFG{},
		labels: map[string]*cfgLabel{},
	}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	b.stmtList(body.List)
	// Falling off the end of the body returns.
	b.edge(b.cur, b.g.Exit)
	b.resolveGotos()
	return b.g
}

// cfgLabel tracks one label's target block plus the loop/switch blocks
// a labeled break or continue jumps to.
type cfgLabel struct {
	target   *Block // the labeled statement's block (goto destination)
	breakTo  *Block
	contTo   *Block
	resolved bool
}

type cfgBuilder struct {
	g   *CFG
	cur *Block // nil after a terminal statement (return, goto, panic)

	// break/continue targets of the innermost enclosing loop, switch or
	// select; stacks because they nest.
	breakStack []*Block
	contStack  []*Block

	labels       map[string]*cfgLabel
	pendingLabel string // label naming the next loop/switch (for labeled break/continue)
	gotos        []pendingGoto
}

type pendingGoto struct {
	from  *Block
	label string
	pos   token.Pos
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// current returns the block statements are flowing into, starting a
// fresh unreachable block after a terminal statement so that dead code
// still gets blocks (the CFG tests assert unreachability explicitly).
func (b *cfgBuilder) current() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

func (b *cfgBuilder) emit(s ast.Stmt) {
	blk := b.current()
	blk.Stmts = append(blk.Stmts, s)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s)

	case *ast.RangeStmt:
		b.rangeStmt(s)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.emit(s.Init)
		}
		if s.Tag != nil {
			b.emit(&ast.ExprStmt{X: s.Tag})
		}
		b.switchBody(s.Body, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.emit(s.Init)
		}
		b.emit(s.Assign)
		b.switchBody(s.Body, nil)

	case *ast.SelectStmt:
		b.selectStmt(s)

	case *ast.LabeledStmt:
		b.labeledStmt(s)

	case *ast.BranchStmt:
		b.branchStmt(s)

	case *ast.ReturnStmt:
		b.emit(s)
		b.edge(b.cur, b.g.Exit)
		b.cur = nil

	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		b.emit(s)

	case *ast.ExprStmt:
		b.emit(s)
		if isPanicCall(s.X) {
			b.edge(b.cur, b.g.Exit)
			b.cur = nil
		}

	default:
		// Assignments, declarations, sends, go statements, inc/dec,
		// empty statements: straight-line.
		b.emit(s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.emit(s.Init)
	}
	b.emit(&ast.ExprStmt{X: s.Cond})
	cond := b.current()

	then := b.newBlock("if.then")
	b.edge(cond, then)
	b.cur = then
	b.stmtList(s.Body.List)
	thenEnd := b.cur

	var elseEnd *Block
	hasElse := s.Else != nil
	if hasElse {
		els := b.newBlock("if.else")
		b.edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		elseEnd = b.cur
	}

	after := b.newBlock("if.after")
	if !hasElse {
		b.edge(cond, after)
	}
	b.edge(thenEnd, after)
	b.edge(elseEnd, after)
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	if s.Init != nil {
		b.emit(s.Init)
	}
	head := b.newBlock("for.head")
	b.edge(b.current(), head)
	b.cur = head
	if s.Cond != nil {
		b.emit(&ast.ExprStmt{X: s.Cond})
	}

	after := b.newBlock("for.after")
	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
	}
	b.openLoop(after, post)

	body := b.newBlock("for.body")
	b.edge(head, body)
	if s.Cond != nil {
		// A for {} without cond never exits by itself: after is only
		// reachable through break.
		b.edge(head, after)
	}
	b.cur = body
	b.stmtList(s.Body.List)
	if s.Post != nil {
		b.edge(b.cur, post)
		b.cur = post
		b.emit(s.Post)
		b.edge(post, head)
	} else {
		b.edge(b.cur, head)
	}
	b.closeLoop()
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	head := b.newBlock("range.head")
	b.edge(b.current(), head)
	b.cur = head
	// The range expression (and per-iteration key/value assignment)
	// evaluates at the head.
	b.emit(&ast.ExprStmt{X: s.X})
	after := b.newBlock("range.after")
	b.edge(head, after)
	b.openLoop(after, head)

	body := b.newBlock("range.body")
	b.edge(head, body)
	b.cur = body
	b.stmtList(s.Body.List)
	b.edge(b.cur, head)
	b.closeLoop()
	b.cur = after
}

// switchBody lowers the case clauses of a switch or type switch. The
// branching block (current) gets an edge to every case; a missing
// default adds a fall-through edge to after.
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, _ *Block) {
	tag := b.current()
	after := b.newBlock("switch.after")
	b.openSwitch(after)

	hasDefault := false
	var clauses []*ast.CaseClause
	for _, raw := range body.List {
		cc := raw.(*ast.CaseClause)
		clauses = append(clauses, cc)
		if cc.List == nil {
			hasDefault = true
		}
	}
	// Pre-create case blocks so fallthrough can target the next body.
	blocks := make([]*Block, len(clauses))
	for i, cc := range clauses {
		kind := "switch.case"
		if cc.List == nil {
			kind = "switch.default"
		}
		blocks[i] = b.newBlock(kind)
		b.edge(tag, blocks[i])
	}
	for i, cc := range clauses {
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.emit(&ast.ExprStmt{X: e})
		}
		ft := false
		for _, cs := range cc.Body {
			if br, ok := cs.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				ft = true
				break
			}
			b.stmt(cs)
		}
		if ft && i+1 < len(blocks) {
			b.edge(b.cur, blocks[i+1])
			b.cur = nil
			continue
		}
		b.edge(b.cur, after)
	}
	if !hasDefault {
		b.edge(tag, after)
	}
	b.closeSwitch()
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	head := b.current()
	after := b.newBlock("select.after")
	b.openSwitch(after)
	for _, raw := range s.Body.List {
		cc := raw.(*ast.CommClause)
		kind := "select.comm"
		if cc.Comm == nil {
			kind = "select.default"
		}
		blk := b.newBlock(kind)
		b.edge(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.edge(b.cur, after)
	}
	// select {} with no cases blocks forever: after is unreachable.
	b.closeSwitch()
	b.cur = after
}

func (b *cfgBuilder) labeledStmt(s *ast.LabeledStmt) {
	name := s.Label.Name
	lb := b.labels[name]
	if lb == nil {
		lb = &cfgLabel{}
		b.labels[name] = lb
	}
	target := b.newBlock("label." + name)
	b.edge(b.cur, target)
	b.cur = target
	lb.target = target
	lb.resolved = true
	// If the labeled statement is a loop or switch, its break/continue
	// targets register under the label as the statement is lowered.
	b.pendingLabel = name
	b.stmt(s.Stmt)
	b.pendingLabel = ""
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	switch s.Tok {
	case token.BREAK:
		var to *Block
		if s.Label != nil {
			if lb := b.labels[s.Label.Name]; lb != nil {
				to = lb.breakTo
			}
		} else if n := len(b.breakStack); n > 0 {
			to = b.breakStack[n-1]
		}
		b.emit(s)
		b.edge(b.cur, to)
		b.cur = nil
	case token.CONTINUE:
		var to *Block
		if s.Label != nil {
			if lb := b.labels[s.Label.Name]; lb != nil {
				to = lb.contTo
			}
		} else if n := len(b.contStack); n > 0 {
			to = b.contStack[n-1]
		}
		b.emit(s)
		b.edge(b.cur, to)
		b.cur = nil
	case token.GOTO:
		b.emit(s)
		b.gotos = append(b.gotos, pendingGoto{from: b.current(), label: s.Label.Name, pos: s.Pos()})
		b.cur = nil
	case token.FALLTHROUGH:
		// Handled by switchBody; a stray fallthrough is a parse error
		// upstream, emit and move on.
		b.emit(s)
	}
}

func (b *cfgBuilder) openLoop(breakTo, contTo *Block) {
	b.breakStack = append(b.breakStack, breakTo)
	b.contStack = append(b.contStack, contTo)
	if b.pendingLabel != "" {
		lb := b.labels[b.pendingLabel]
		lb.breakTo = breakTo
		lb.contTo = contTo
		b.pendingLabel = ""
	}
}

func (b *cfgBuilder) closeLoop() {
	b.breakStack = b.breakStack[:len(b.breakStack)-1]
	b.contStack = b.contStack[:len(b.contStack)-1]
}

func (b *cfgBuilder) openSwitch(breakTo *Block) {
	b.breakStack = append(b.breakStack, breakTo)
	if b.pendingLabel != "" {
		b.labels[b.pendingLabel].breakTo = breakTo
		b.pendingLabel = ""
	}
}

func (b *cfgBuilder) closeSwitch() {
	b.breakStack = b.breakStack[:len(b.breakStack)-1]
}

// resolveGotos patches forward gotos: the label's block may not exist
// when the goto is lowered.
func (b *cfgBuilder) resolveGotos() {
	for _, g := range b.gotos {
		if lb := b.labels[g.label]; lb != nil && lb.target != nil {
			b.edge(g.from, lb.target)
		}
	}
}

// isPanicCall reports whether e is a direct call of the panic builtin.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
