// Package cfg builds per-function control-flow graphs over go/ast so
// the flow-sensitive rtwlint analyzers (nilerr and the value-range
// tier) can reason about paths instead of syntax. It is a small,
// offline stand-in for golang.org/x/tools/go/cfg with one deliberate
// difference: every function exit — each return statement
// and the fall-off end of the body — gets an edge to a single
// synthetic Exit block, so a forward dataflow analysis reads "the fact
// on every path out of the function" directly off Exit's input.
//
// Statements land in blocks whole, except compound statements, whose
// sub-statements live in their own blocks: an *ast.IfStmt contributes
// only its Init and Cond to the block that evaluates them, a
// *ast.SwitchStmt its Init and Tag, an *ast.RangeStmt itself (standing
// for the per-iteration key/value assignment). Function literals are
// never entered — a nested closure is its own function with its own
// CFG (see FuncBodies) — so transfer functions walking a block node
// must use cfg.Inspect, which stops at *ast.FuncLit.
//
// Panics end a block with no successors: a panicking path leaves the
// function by unwinding, not through Exit, which is exactly the
// treatment the analyzers want (a cancel func "leaked" only on a
// panicking path is not a leak worth reporting).
package cfg

import (
	"fmt"
	"go/ast"
	"strings"
)

// CFG is the control-flow graph of one function body.
// Blocks[0] is Entry, Blocks[1] is the synthetic Exit.
type CFG struct {
	Blocks []*Block
}

// Entry returns the entry block.
func (g *CFG) Entry() *Block { return g.Blocks[0] }

// Exit returns the synthetic exit block every return statement and the
// fall-off end of the body lead to.
func (g *CFG) Exit() *Block { return g.Blocks[1] }

// Block is one straight-line run of nodes. Execution enters at the
// first node and leaves to one of Succs; no successors means the path
// ends here (a panic, an endless select, or the Exit block itself).
type Block struct {
	Index  int
	Kind   string // "entry", "exit", "if.then", "for.body", ... for tests and debugging
	Nodes  []ast.Node
	Succs  []*Block
	Branch *Branch // non-nil when the block ends on a two-way condition
}

// Branch records which successor a block's final condition selects.
// Succs alone cannot carry this: an if's cond block lists [then, else]
// while a for head lists [done, body], so edge-sensitive analyses (the
// interval tier's branch refinement) need the polarity spelled out.
// Set for *ast.IfStmt conditions and *ast.ForStmt heads with a Cond;
// switch guards and range heads stay nil (multi-way or no condition).
type Branch struct {
	Cond  ast.Expr
	True  *Block // taken when Cond evaluates true
	False *Block // taken when Cond evaluates false
}

func (b *Block) String() string {
	succs := make([]string, len(b.Succs))
	for i, s := range b.Succs {
		succs[i] = fmt.Sprintf("%d", s.Index)
	}
	return fmt.Sprintf("#%d %s -> [%s]", b.Index, b.Kind, strings.Join(succs, " "))
}

// New builds the CFG of one function body.
func New(body *ast.BlockStmt) *CFG {
	b := &builder{g: &CFG{}}
	entry := b.newBlock("entry") // index 0
	b.newBlock("exit")           // index 1
	b.cur = entry
	b.stmtList(body.List)
	b.jump(b.g.Exit()) // fall-off end of the body
	return b.g
}

// builder carries the construction state.
type builder struct {
	g   *CFG
	cur *Block // open block statements append to; nil after a terminator
	// frames is the stack of enclosing breakable constructs (loops,
	// switches, selects).
	frames []frame
	// labels maps a label name to the block a goto to it jumps to.
	labels map[string]*Block
	// labelNext carries a pending label from a LabeledStmt to the
	// statement it labels, so `L: for ...` registers L as that loop's
	// break/continue label.
	labelNext string
	// fallthroughTo is the next case clause while building a switch
	// clause body (nil outside switches and in the last clause).
	fallthroughTo *Block
}

type frame struct {
	label      string // "" when unlabeled
	breakTo    *Block
	continueTo *Block // nil for switch/select (not continuable)
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// jump adds an edge cur -> to (when cur is still open).
func (b *builder) jump(to *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, to)
	}
}

// add appends a node to the current block. A nil current block means
// the statement is unreachable (it follows a return/goto/panic); it
// still gets a block so its nodes are walkable, just with no incoming
// edge.
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// labelBlock returns (creating on first mention, so forward gotos
// work) the block a goto to name jumps to.
func (b *builder) labelBlock(name string) *Block {
	if b.labels == nil {
		b.labels = map[string]*Block{}
	}
	blk, ok := b.labels[name]
	if !ok {
		blk = b.newBlock("label." + name)
		b.labels[name] = blk
	}
	return blk
}

// frameFor finds the innermost frame matching the (possibly empty)
// label; with needContinue it skips frames that cannot be continued
// (switch/select), which is how an unlabeled continue inside a switch
// reaches the enclosing loop.
func (b *builder) frameFor(label string, needContinue bool) *frame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needContinue && f.continueTo == nil {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

// pushFrame consumes a pending label (from an enclosing LabeledStmt).
func (b *builder) pushFrame(f frame) {
	f.label = b.labelNext
	b.labelNext = ""
	b.frames = append(b.frames, f)
}

func (b *builder) popFrame() { b.frames = b.frames[:len(b.frames)-1] }

func (b *builder) stmt(s ast.Stmt) {
	// Any statement other than a LabeledStmt consumes the pending
	// label: `L: x := 1` labels a plain statement, usable only by goto.
	if _, ok := s.(*ast.LabeledStmt); !ok {
		defer func() { b.labelNext = "" }()
	}

	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit())
		b.cur = nil

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanic(s.X) {
			b.cur = nil // the path unwinds; no Exit edge
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		b.jump(then)
		b.cur = then
		b.stmt(s.Body)
		b.jump(done)
		if s.Else != nil {
			els := b.newBlock("if.else")
			cond.Succs = append(cond.Succs, els)
			cond.Branch = &Branch{Cond: s.Cond, True: then, False: els}
			b.cur = els
			b.stmt(s.Else)
			b.jump(done)
		} else {
			cond.Succs = append(cond.Succs, done)
			cond.Branch = &Branch{Cond: s.Cond, True: then, False: done}
		}
		b.cur = done

	case *ast.ForStmt:
		label := b.labelNext
		b.labelNext = ""
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		b.jump(head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
			b.jump(done)
			head.Branch = &Branch{Cond: s.Cond, True: body, False: done}
		}
		b.jump(body)
		b.labelNext = label
		b.pushFrame(frame{breakTo: done, continueTo: post})
		b.cur = body
		b.stmt(s.Body)
		b.jump(post)
		if s.Post != nil {
			b.cur = post
			b.add(s.Post)
			b.jump(head)
		}
		b.popFrame()
		b.cur = done

	case *ast.RangeStmt:
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.jump(head)
		b.cur = head
		b.add(s) // stands for the per-iteration key/value assignment
		b.jump(body)
		b.jump(done)
		b.pushFrame(frame{breakTo: done, continueTo: head})
		b.cur = body
		b.stmt(s.Body)
		b.jump(head)
		b.popFrame()
		b.cur = done

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body, "switch")

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body, "typeswitch")

	case *ast.SelectStmt:
		head := b.cur
		done := b.newBlock("select.done")
		b.pushFrame(frame{breakTo: done})
		clauses := make([]*Block, len(s.Body.List))
		for i := range s.Body.List {
			clauses[i] = b.newBlock("select.clause")
			if head != nil {
				head.Succs = append(head.Succs, clauses[i])
			}
		}
		for i, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			b.cur = clauses[i]
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.jump(done)
		}
		b.popFrame()
		b.cur = done
		if len(s.Body.List) == 0 {
			// select{} blocks forever: the path ends.
			b.cur = nil
		}

	case *ast.LabeledStmt:
		lbl := b.labelBlock(s.Label.Name)
		b.jump(lbl)
		b.cur = lbl
		b.labelNext = s.Label.Name
		b.stmt(s.Stmt)

	default:
		// DeferStmt, GoStmt, AssignStmt, IncDecStmt, DeclStmt,
		// SendStmt, EmptyStmt, and anything unanticipated.
		b.add(s)
	}
}

// switchBody builds the clause blocks of a switch/type-switch; the
// pending label (if any) names the switch for labeled breaks.
//
// Case expressions evaluate sequentially in source order (skipping the
// default clause), so they form a guard chain: each guard block holds
// one clause's expressions and branches to that clause's body on a
// match or to the next guard otherwise. The default body (or the end
// of the switch) is reached only after every guard — which is what
// lets a dataflow analysis see that `switch { case err == nil: ...
// default: ... }` has inspected err on the default path too.
func (b *builder) switchBody(body *ast.BlockStmt, kind string) {
	done := b.newBlock(kind + ".done")
	b.pushFrame(frame{breakTo: done})
	n := len(body.List)
	bodies := make([]*Block, n)
	defaultIdx := -1
	for i, c := range body.List {
		bodies[i] = b.newBlock(kind + ".case")
		if c.(*ast.CaseClause).List == nil {
			defaultIdx = i
		}
	}
	for i, c := range body.List {
		if i == defaultIdx {
			continue
		}
		for _, e := range c.(*ast.CaseClause).List {
			b.add(e)
		}
		b.jump(bodies[i])
		next := b.newBlock(kind + ".guard")
		b.jump(next)
		b.cur = next
	}
	// Every guard failed: the default body, or out of the switch.
	if defaultIdx >= 0 {
		b.jump(bodies[defaultIdx])
	} else {
		b.jump(done)
	}
	savedFall := b.fallthroughTo
	for i, c := range body.List {
		cc := c.(*ast.CaseClause)
		b.cur = bodies[i]
		b.fallthroughTo = nil
		if i+1 < n {
			b.fallthroughTo = bodies[i+1]
		}
		b.stmtList(cc.Body)
		b.jump(done)
	}
	b.fallthroughTo = savedFall
	b.popFrame()
	b.cur = done
}

func (b *builder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	b.add(s)
	switch s.Tok.String() {
	case "break":
		if f := b.frameFor(label, false); f != nil {
			b.jump(f.breakTo)
		}
	case "continue":
		if f := b.frameFor(label, true); f != nil {
			b.jump(f.continueTo)
		}
	case "goto":
		if label != "" {
			b.jump(b.labelBlock(label))
		}
	case "fallthrough":
		if b.fallthroughTo != nil {
			b.jump(b.fallthroughTo)
		}
	}
	b.cur = nil
}

// isPanic reports whether the expression is a call to the panic
// builtin (syntactically; a shadowed panic is out of scope).
func isPanic(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// Func is one function body found in a file: a declaration or a
// literal. Lits nested in decls (and in other lits) are reported as
// their own entries — each runs as its own frame with its own CFG.
type Func struct {
	Name string   // display name: "f", "(*T).m", or "func@line"
	Node ast.Node // *ast.FuncDecl or *ast.FuncLit
	Body *ast.BlockStmt
}

// FuncBodies collects every function body of the file, declarations
// and literals alike, in source order.
func FuncBodies(f *ast.File) []Func {
	var out []Func
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, Func{Name: declName(n), Node: n, Body: n.Body})
			}
		case *ast.FuncLit:
			out = append(out, Func{Name: "func literal", Node: n, Body: n.Body})
		}
		return true
	})
	return out
}

func declName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	recv := d.Recv.List[0].Type
	var sb strings.Builder
	writeRecv(&sb, recv)
	return sb.String() + "." + d.Name.Name
}

func writeRecv(sb *strings.Builder, t ast.Expr) {
	switch t := t.(type) {
	case *ast.StarExpr:
		sb.WriteString("(*")
		writeRecv(sb, t.X)
		sb.WriteString(")")
	case *ast.Ident:
		sb.WriteString(t.Name)
	case *ast.IndexExpr:
		writeRecv(sb, t.X)
	case *ast.IndexListExpr:
		writeRecv(sb, t.X)
	default:
		sb.WriteString("?")
	}
}

// Inspect walks the AST below n in syntactic order like ast.Inspect
// but respects block boundaries: it does not descend into function
// literals (a closure's body belongs to its own CFG, not to the block
// that creates it), and at a *ast.RangeStmt it walks only Key, Value,
// and X — the node stands for the per-iteration assignment; the body's
// statements live in their own blocks and would otherwise be applied a
// second time, out of order, at the loop head.
func Inspect(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if r, ok := m.(*ast.RangeStmt); ok {
			if !fn(r) {
				return false
			}
			for _, c := range []ast.Node{r.Key, r.Value, r.X} {
				if c != nil {
					Inspect(c, fn)
				}
			}
			return false
		}
		return fn(m)
	})
}
