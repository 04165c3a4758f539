// Package cfg builds per-function control-flow graphs over go/ast and
// solves forward dataflow problems on them, entirely on the standard
// library. It is the analysis substrate behind the dataflow-aware
// analyzers in internal/lint (journalpair, nondeterm): the syntax-level
// walkers cannot see that an obstacle journal is stopped on one branch but
// left open on the other, or that a wall-clock value reaches a branch
// condition through an assignment — a flow graph can.
//
// The graph is intentionally lint-grade rather than compiler-grade:
// short-circuit evaluation inside a condition is not split into blocks
// (the whole condition is one node), panics do not terminate blocks (an
// analysis that cares ends the path in its transfer function), and
// deferred calls appear where the defer statement executes. Those
// approximations err toward fewer spurious paths, which is the right
// direction for a reporting tool.
package cfg

import (
	"go/ast"
	"go/token"
)

// A Block is one basic block: a maximal run of straight-line code. Nodes
// holds the block's statements and control-flow expressions in source
// order; a bare ast.Expr among them is a control condition (if/for
// condition, switch tag, case expression, or range operand) rather than an
// expression statement.
type Block struct {
	// Index is the block's position in Graph.Blocks.
	Index int
	// Nodes are the statements and control expressions executed by the
	// block, in order.
	Nodes []ast.Node
	// Succs are the blocks control may transfer to next.
	Succs []*Block
	// Preds are the blocks control may arrive from.
	Preds []*Block
}

// A Graph is the control-flow graph of one function body. Entry has no
// predecessors; Exit is a synthetic empty block reached by every return
// and by falling off the end of the body.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// New builds the control-flow graph of body. Closures inside body are not
// expanded — an *ast.FuncLit is an opaque value in the block that mentions
// it, and callers analyze closure bodies as separate graphs.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, labels: map[string]*labelInfo{}}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	b.stmtList(body.List)
	b.edge(b.cur, g.Exit)
	return g
}

// RPO returns the blocks reachable from Entry in reverse postorder — the
// order forward dataflow converges fastest in.
func (g *Graph) RPO() []*Block {
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// --- builder ---------------------------------------------------------------

type labelInfo struct {
	target *Block // the labeled statement's entry (goto target)
	brk    *Block // break target when the labeled statement is breakable
	cont   *Block // continue target when the labeled statement is a loop
}

type builder struct {
	g   *Graph
	cur *Block

	breaks    []*Block
	continues []*Block
	labels    map[string]*labelInfo
	labelNext string // label attached to the next loop/switch/select
	fallNext  *Block // fallthrough target inside the current switch clause
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) takeLabel() string {
	l := b.labelNext
	b.labelNext = ""
	return l
}

func (b *builder) label(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{target: b.newBlock()}
		b.labels[name] = li
	}
	return li
}

func (b *builder) pushLoop(name string, brk, cont *Block) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
	if name != "" {
		li := b.label(name)
		li.brk, li.cont = brk, cont
	}
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

func (b *builder) pushBreakable(name string, brk *Block) {
	b.breaks = append(b.breaks, brk)
	if name != "" {
		b.label(name).brk = brk
	}
}

func (b *builder) popBreakable() {
	b.breaks = b.breaks[:len(b.breaks)-1]
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmt(s.Body)
		thenEnd := b.cur
		var elseEnd *Block
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			elseEnd = b.cur
		}
		after := b.newBlock()
		b.edge(thenEnd, after)
		if elseEnd != nil {
			b.edge(elseEnd, after)
		} else {
			b.edge(cond, after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		body := b.newBlock()
		b.edge(head, body)
		after := b.newBlock()
		if s.Cond != nil {
			b.edge(head, after)
		}
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			cont = post
		}
		b.pushLoop(label, after, cont)
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, cont)
		if post != nil {
			b.cur = post
			b.add(s.Post)
			b.edge(post, head)
		}
		b.popLoop()
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(s.X)
		head := b.newBlock()
		b.edge(b.cur, head)
		body := b.newBlock()
		b.edge(head, body)
		after := b.newBlock()
		b.edge(head, after)
		b.pushLoop(label, after, head)
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, head)
		b.popLoop()
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(label, s.Body.List, true)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(label, s.Body.List, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		cond := b.cur
		after := b.newBlock()
		b.pushBreakable(label, after)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(cond, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, after)
		}
		b.popBreakable()
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.cur = b.newBlock() // dead continuation

	case *ast.BranchStmt:
		b.add(s)
		var target *Block
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				target = b.label(s.Label.Name).brk
			} else if len(b.breaks) > 0 {
				target = b.breaks[len(b.breaks)-1]
			}
		case token.CONTINUE:
			if s.Label != nil {
				target = b.label(s.Label.Name).cont
			} else if len(b.continues) > 0 {
				target = b.continues[len(b.continues)-1]
			}
		case token.GOTO:
			if s.Label != nil {
				target = b.label(s.Label.Name).target
			}
		case token.FALLTHROUGH:
			target = b.fallNext
		}
		if target != nil {
			b.edge(b.cur, target)
		}
		b.cur = b.newBlock() // dead continuation

	case *ast.LabeledStmt:
		li := b.label(s.Label.Name)
		b.edge(b.cur, li.target)
		b.cur = li.target
		b.labelNext = s.Label.Name
		b.stmt(s.Stmt)
		b.labelNext = ""

	case *ast.EmptyStmt:
		// nothing

	default:
		// Expression, assignment, declaration, send, inc/dec, defer, go:
		// straight-line code.
		b.add(s)
	}
}

// caseClauses lowers the body of a switch or type switch: every clause is
// a successor of the current block (clause conditions are evaluated in
// order, but the lint-grade graph treats them as one fan-out), with an
// implicit break to the join block and explicit fallthrough edges.
func (b *builder) caseClauses(label string, clauses []ast.Stmt, allowFall bool) {
	cond := b.cur
	after := b.newBlock()
	b.pushBreakable(label, after)
	savedFall := b.fallNext
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
		b.edge(cond, blocks[i])
	}
	hasDefault := false
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		b.fallNext = nil
		if allowFall && i+1 < len(clauses) {
			b.fallNext = blocks[i+1]
		}
		b.stmtList(cc.Body)
		b.edge(b.cur, after)
	}
	b.fallNext = savedFall
	if !hasDefault {
		b.edge(cond, after)
	}
	b.popBreakable()
	b.cur = after
}
