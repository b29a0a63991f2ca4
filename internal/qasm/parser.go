package qasm

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"codar/internal/circuit"
)

// maxInlineDepth bounds user-defined gate expansion to catch recursive
// definitions.
const maxInlineDepth = 100

// maxQubits caps the total declared quantum (and classical) bits. The
// parser runs on untrusted service input, and whole-register operations
// allocate per element — without a cap, "qreg q[2000000000];" followed by
// "barrier q;" would try to materialise billions of indices. 65536 is far
// beyond any device in the registry.
const maxQubits = 1 << 16

// arenaSlab is the slab size of the arenas the parser carves gate qubit
// and parameter slices from. Small slabs keep a streamed parse's heap
// small: a slab stays reachable while any gate taken from it is live.
const arenaSlab = 256

// reg is a declared quantum or classical register with its flat offset.
type reg struct {
	name   string
	offset int
	size   int
}

// gateDef is a user-defined gate awaiting inline expansion. Its parameter
// and argument names are resolved to indexes when the body is parsed, so
// an application binds them by position.
type gateDef struct {
	name   string
	params int // parameter count
	args   int // argument count
	body   []bodyStmt
	exprs  []exprNode // the body's parameter expressions
}

// bodyStmt is one statement inside a gate body: an application of a named
// gate to formal arguments, or a barrier over formal arguments.
type bodyStmt struct {
	name    string
	op      circuit.Op // the builtin op name resolves to, when builtin
	builtin bool
	params  []int32 // expression roots in the definition's exprs
	args    []int   // indexes into the definition's arguments, -1 if unbound
	unbound string  // the first unbound argument name, for its error
	barrier bool
}

// parser consumes a token stream and builds a circuit.
type parser struct {
	lx     *lexer
	tok    token // one-token lookahead
	primed bool
	// lexErr records a lexer failure. The failing position is masked as
	// EOF so the recursive-descent code needs no per-take error plumbing;
	// every entry point checks lexErr before trusting an accept.
	lexErr error

	qregs []reg
	cregs []reg
	defs  map[string]*gateDef
	circ  *circuit.Circuit

	// Scratch reused across statements, so applying a builtin gate
	// allocates nothing beyond its arena-carved slices.
	ops    []operand
	exprs  []exprNode
	scope  []string  // parameter names of the definition being parsed
	qstack []int     // qubit lists of the applications in progress
	fstack []float64 // parameter lists likewise
	qarena circuit.IntArena
	farena circuit.FloatArena

	gatesHint int // initial capacity of the circuit's gate slice
}

func newParser(r io.Reader) *parser {
	return &parser{
		lx:     newLexer(r),
		defs:   make(map[string]*gateDef),
		qarena: circuit.IntArena{Slab: arenaSlab},
		farena: circuit.FloatArena{Slab: arenaSlab},
	}
}

// Parse compiles OpenQASM 2.0 source into a flat circuit over all declared
// quantum registers (concatenated in declaration order); classical bits are
// flattened the same way. include directives are ignored — the standard
// qelib1 gates are built in, and user-defined gates are inlined.
//
// A lexical error anywhere in src is reported ahead of any syntax error.
func Parse(src string) (*circuit.Circuit, error) {
	p := newParser(strings.NewReader(src))
	// Every gate statement ends in ';', so the count sizes the gate slice
	// for programs without broadcasts or inlined definitions.
	p.gatesHint = strings.Count(src, ";")
	if err := p.parseProgram(); err != nil {
		if lerr := p.lexErrAhead(); lerr != nil {
			return nil, lerr
		}
		return nil, err
	}
	return p.circ, nil
}

// lexErrAhead returns the first lexical error of the whole input, lexing
// past the point where parsing stopped.
func (p *parser) lexErrAhead() error {
	if p.lexErr != nil {
		return p.lexErr
	}
	for p.lx.next().kind != tokEOF {
	}
	return p.lx.err
}

// ParseNamed is Parse with a circuit name attached.
func ParseNamed(name, src string) (*circuit.Circuit, error) {
	c, err := Parse(src)
	if err != nil {
		return nil, err
	}
	c.Name = name
	return c, nil
}

// peek returns the lookahead token, lexing it on first use. A lexer error
// reads as a tokEOF (on line 0) and is kept in lexErr.
func (p *parser) peek() *token {
	if !p.primed {
		p.tok = p.lx.next()
		p.primed = true
		if p.lx.err != nil && p.lexErr == nil {
			p.lexErr = p.lx.err
		}
	}
	return &p.tok
}

func (p *parser) take() token { t := p.peek(); p.primed = false; return *t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

// describe renders a token for diagnostics.
func (p *parser) describe(t token) string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", p.lx.text(t))
}

func (p *parser) peekSymbol(s byte) bool {
	t := p.peek()
	return t.kind == tokSymbol && t.sym == s
}

func (p *parser) peekIdent(s string) bool {
	t := p.peek()
	return t.kind == tokIdent && string(p.lx.text(*t)) == s
}

func (p *parser) expectSymbol(s byte) error {
	t := p.take()
	if t.kind != tokSymbol || t.sym != s {
		return fmt.Errorf("qasm: line %d: expected %q, found %s", t.line, symText(s), p.describe(t))
	}
	return nil
}

func (p *parser) expectIdent() (token, error) {
	t := p.take()
	if t.kind != tokIdent {
		return t, fmt.Errorf("qasm: line %d: expected identifier, found %s", t.line, p.describe(t))
	}
	return t, nil
}

func (p *parser) expectInt() (int, error) {
	t := p.take()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("qasm: line %d: expected integer, found %s", t.line, p.describe(t))
	}
	text := p.lx.text(t)
	n, err := strconv.Atoi(string(text))
	if err != nil {
		return 0, fmt.Errorf("qasm: line %d: expected integer, found %q", t.line, text)
	}
	return n, nil
}

// parseProgram parses the full translation unit.
func (p *parser) parseProgram() error {
	if err := p.parseHeader(); err != nil {
		return err
	}
	for !p.atEOF() {
		if err := p.parseStatement(); err != nil {
			return err
		}
	}
	if p.lexErr != nil {
		// A lexer failure surfaces as a masked EOF; report the original
		// lexer error, not the truncated-program symptom.
		return p.lexErr
	}
	return p.finishProgram()
}

// parseHeader consumes the optional "OPENQASM 2.0;" prologue.
func (p *parser) parseHeader() error {
	if p.peekIdent("OPENQASM") {
		p.take()
		t := p.take()
		if t.kind != tokNumber {
			return fmt.Errorf("qasm: line %d: expected version number", t.line)
		}
		if err := p.expectSymbol(';'); err != nil {
			return err
		}
	}
	return nil
}

// finishProgram applies the end-of-input rules once all statements parsed.
func (p *parser) finishProgram() error {
	if p.circ == nil {
		if len(p.qregs) == 0 {
			return fmt.Errorf("qasm: no quantum register declared")
		}
		// Registers but no operations: a legal (empty) program. Materialise
		// the circuit so it round-trips through Write.
		return p.ensureCircuit()
	}
	return nil
}

// ensureCircuit materialises the output circuit once registers are known.
func (p *parser) ensureCircuit() error {
	if p.circ != nil {
		return nil
	}
	total := 0
	for _, r := range p.qregs {
		total += r.size
	}
	if total == 0 {
		return fmt.Errorf("qasm: statement before any qreg declaration")
	}
	p.circ = circuit.New(total)
	p.circ.Gates = make([]circuit.Gate, 0, p.gatesHint)
	for _, r := range p.cregs {
		p.circ.NumClbits += r.size
	}
	return nil
}

// parseStatement parses one statement. Its tokens stay in the lexer buffer
// until it ends; after it, nothing is held.
func (p *parser) parseStatement() error {
	t := *p.peek()
	p.lx.keep = t.start
	err := p.statement(t)
	p.lx.keep = release
	return err
}

func (p *parser) statement(t token) error {
	if t.kind != tokIdent {
		return fmt.Errorf("qasm: line %d: expected statement, found %s", t.line, p.describe(t))
	}
	switch string(p.lx.text(t)) {
	case "include":
		p.take()
		s := p.take()
		if s.kind != tokString {
			return fmt.Errorf("qasm: line %d: expected file name after include", s.line)
		}
		return p.expectSymbol(';')
	case "qreg":
		return p.parseRegDecl(true)
	case "creg":
		return p.parseRegDecl(false)
	case "gate":
		return p.parseGateDef()
	case "opaque":
		// Declaration only; skip to the terminating semicolon.
		for !p.atEOF() && !p.peekSymbol(';') {
			p.take()
		}
		return p.expectSymbol(';')
	case "barrier":
		p.take()
		return p.parseBarrier()
	case "measure":
		p.take()
		return p.parseMeasure()
	case "reset":
		p.take()
		return p.parseReset()
	case "if":
		return fmt.Errorf("qasm: line %d: classical control (if) is not supported", t.line)
	default:
		return p.parseApplication()
	}
}

func (p *parser) parseRegDecl(quantum bool) error {
	p.take() // qreg/creg
	id, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectSymbol('['); err != nil {
		return err
	}
	size, err := p.expectInt()
	if err != nil {
		return err
	}
	name := string(p.lx.text(id))
	if size <= 0 {
		return fmt.Errorf("qasm: line %d: register %q has size %d", id.line, name, size)
	}
	if err := p.expectSymbol(']'); err != nil {
		return err
	}
	if err := p.expectSymbol(';'); err != nil {
		return err
	}
	if p.circ != nil {
		return fmt.Errorf("qasm: line %d: register %q declared after first operation", id.line, name)
	}
	if _, _, ok := p.findReg(p.lx.text(id), true); ok {
		return fmt.Errorf("qasm: line %d: register %q redeclared", id.line, name)
	}
	if _, _, ok := p.findReg(p.lx.text(id), false); ok {
		return fmt.Errorf("qasm: line %d: register %q redeclared", id.line, name)
	}
	regs, kind := &p.qregs, "qubits"
	if !quantum {
		regs, kind = &p.cregs, "classical bits"
	}
	offset := 0
	for _, r := range *regs {
		offset += r.size
	}
	if size > maxQubits-offset {
		return fmt.Errorf("qasm: line %d: register %q pushes the program past %d %s", id.line, name, maxQubits, kind)
	}
	*regs = append(*regs, reg{name: name, offset: offset, size: size})
	return nil
}

func (p *parser) findReg(name []byte, quantum bool) (offset, size int, ok bool) {
	regs := p.qregs
	if !quantum {
		regs = p.cregs
	}
	for _, r := range regs {
		if r.name == string(name) {
			return r.offset, r.size, true
		}
	}
	return 0, 0, false
}

// operand is a parsed register reference: whole register (index < 0) or a
// single element.
type operand struct {
	offset int // flat offset of the register
	size   int
	index  int // -1 for whole-register
	line   int
}

// pushQubits appends the flat indices the operand denotes to p.qstack.
func (p *parser) pushQubits(o operand) {
	if o.index >= 0 {
		p.qstack = append(p.qstack, o.offset+o.index)
		return
	}
	for i := 0; i < o.size; i++ {
		p.qstack = append(p.qstack, o.offset+i)
	}
}

func (p *parser) parseOperand(quantum bool) (operand, error) {
	id, err := p.expectIdent()
	if err != nil {
		return operand{}, err
	}
	name := p.lx.text(id)
	offset, size, ok := p.findReg(name, quantum)
	if !ok {
		kind := "quantum"
		if !quantum {
			kind = "classical"
		}
		return operand{}, fmt.Errorf("qasm: line %d: unknown %s register %q", id.line, kind, name)
	}
	o := operand{offset: offset, size: size, index: -1, line: id.line}
	if p.peekSymbol('[') {
		p.take()
		idx, err := p.expectInt()
		if err != nil {
			return operand{}, err
		}
		if err := p.expectSymbol(']'); err != nil {
			return operand{}, err
		}
		if idx < 0 || idx >= size {
			return operand{}, fmt.Errorf("qasm: line %d: index %d out of range for %q[%d]", id.line, idx, p.lx.text(id), size)
		}
		o.index = idx
	}
	return o, nil
}

// parseOperands parses a comma-separated quantum operand list into p.ops.
func (p *parser) parseOperands() error {
	p.ops = p.ops[:0]
	for {
		o, err := p.parseOperand(true)
		if err != nil {
			return err
		}
		p.ops = append(p.ops, o)
		if !p.peekSymbol(',') {
			return nil
		}
		p.take()
	}
}

func (p *parser) parseBarrier() error {
	if err := p.ensureCircuit(); err != nil {
		return err
	}
	if err := p.parseOperands(); err != nil {
		return err
	}
	if err := p.expectSymbol(';'); err != nil {
		return err
	}
	mark := len(p.qstack)
	for _, o := range p.ops {
		p.pushQubits(o)
	}
	qs := p.ownQubits(p.qstack[mark:])
	p.qstack = p.qstack[:mark]
	return p.emit(circuit.Gate{Op: circuit.OpBarrier, Qubits: qs}, 0)
}

func (p *parser) parseMeasure() error {
	if err := p.ensureCircuit(); err != nil {
		return err
	}
	q, err := p.parseOperand(true)
	if err != nil {
		return err
	}
	if err := p.expectSymbol(symArrow); err != nil {
		return err
	}
	c, err := p.parseOperand(false)
	if err != nil {
		return err
	}
	if err := p.expectSymbol(';'); err != nil {
		return err
	}
	n, cn := 1, 1
	if q.index < 0 {
		n = q.size
	}
	if c.index < 0 {
		cn = c.size
	}
	if n != cn {
		return fmt.Errorf("qasm: line %d: measure size mismatch (%d qubits -> %d bits)", q.line, n, cn)
	}
	for i := 0; i < n; i++ {
		qi, ci := q.index, c.index
		if qi < 0 {
			qi = i
		}
		if ci < 0 {
			ci = i
		}
		g := circuit.Gate{Op: circuit.OpMeasure, Qubits: p.ownQubit(q.offset + qi), Cbit: c.offset + ci}
		if err := p.emit(g, 0); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) parseReset() error {
	if err := p.ensureCircuit(); err != nil {
		return err
	}
	o, err := p.parseOperand(true)
	if err != nil {
		return err
	}
	if err := p.expectSymbol(';'); err != nil {
		return err
	}
	lo, hi := o.index, o.index+1
	if o.index < 0 {
		lo, hi = 0, o.size
	}
	for i := lo; i < hi; i++ {
		if err := p.emit(circuit.Gate{Op: circuit.OpReset, Qubits: p.ownQubit(o.offset + i)}, 0); err != nil {
			return err
		}
	}
	return nil
}

// parseParams parses an optional parenthesised parameter list. At top
// level (roots nil) each expression is evaluated at once and its value
// pushed to p.fstack; inside a gate body its root is appended to roots.
func (p *parser) parseParams(line int, roots *[]int32) error {
	if !p.peekSymbol('(') {
		return nil
	}
	p.take()
	if !p.peekSymbol(')') {
		for {
			if roots == nil {
				p.exprs = p.exprs[:0]
			}
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			if roots != nil {
				*roots = append(*roots, e)
			} else {
				v, err := eval(p.exprs, e, nil)
				if err != nil {
					return fmt.Errorf("qasm: line %d: %w", line, err)
				}
				p.fstack = append(p.fstack, v)
			}
			if !p.peekSymbol(',') {
				break
			}
			p.take()
		}
	}
	return p.expectSymbol(')')
}

// parseApplication handles "name(params)? operands ;" statements.
func (p *parser) parseApplication() error {
	if name := p.tok; p.quickApplication() {
		return p.applyBroadcast(p.lx.text(name), name.line, nil)
	}
	id, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.ensureCircuit(); err != nil {
		return err
	}
	p.fstack = p.fstack[:0] // a top-level statement starts the stack
	if err := p.parseParams(id.line, nil); err != nil {
		return err
	}
	if err := p.parseOperands(); err != nil {
		return err
	}
	if err := p.expectSymbol(';'); err != nil {
		return err
	}
	return p.applyBroadcast(p.lx.text(id), id.line, p.fstack)
}

// quickApplication recognises the commonest statement shape straight from
// the lexer buffer: a parameterless application to indexed operands on
// one line, such as "cx q[0], q[1];", with only spaces or tabs between its
// tokens. It runs with the gate name as the lookahead token. On a match
// whose operands all resolve, it fills p.ops, consumes the statement up to
// its ';' and reports true; the caller then applies the gate. Anything
// else — parameters, whole registers, comments, line breaks, unknown
// registers, out-of-range indexes — leaves the lexer untouched and goes
// through the token parser, which is the one that reports errors.
func (p *parser) quickApplication() bool {
	if p.circ == nil {
		return false
	}
	buf, pos := p.lx.buf[:p.lx.lim], p.lx.pos
	p.ops = p.ops[:0]
	for {
		pos = skipSpaces(buf, pos)
		start := pos
		if pos >= len(buf) || byteClass[buf[pos]]&clsIdentStart == 0 {
			return false
		}
		for pos++; pos < len(buf) && byteClass[buf[pos]]&clsIdentPart != 0; pos++ {
		}
		offset, size, ok := p.findReg(buf[start:pos], true)
		if !ok || pos >= len(buf) || buf[pos] != '[' {
			return false
		}
		idx, digits := 0, 0
		for pos++; pos < len(buf) && byteClass[buf[pos]]&clsDigit != 0; pos++ {
			idx = idx*10 + int(buf[pos]-'0')
			digits++
		}
		if digits == 0 || digits > 9 || idx >= size || pos >= len(buf) || buf[pos] != ']' {
			return false
		}
		p.ops = append(p.ops, operand{offset: offset, size: size, index: idx, line: p.tok.line})
		if pos = skipSpaces(buf, pos+1); pos < len(buf) && buf[pos] == ';' {
			p.lx.pos = pos + 1
			p.primed = false
			return true
		}
		if pos >= len(buf) || buf[pos] != ',' {
			return false
		}
		pos++
	}
}

func skipSpaces(buf []byte, pos int) int {
	for pos < len(buf) && (buf[pos] == ' ' || buf[pos] == '\t') {
		pos++
	}
	return pos
}

// applyBroadcast expands whole-register operands: every full-register
// operand must have the same size, and the gate is applied element-wise;
// indexed operands stay fixed.
func (p *parser) applyBroadcast(name []byte, line int, params []float64) error {
	bsize := -1
	for _, o := range p.ops {
		if o.index < 0 {
			if bsize >= 0 && o.size != bsize {
				return fmt.Errorf("qasm: line %d: broadcast register sizes differ (%d vs %d)", line, bsize, o.size)
			}
			bsize = o.size
		}
	}
	for k := 0; k < max(bsize, 1); k++ {
		mark := len(p.qstack)
		for _, o := range p.ops {
			if o.index < 0 {
				p.qstack = append(p.qstack, o.offset+k)
			} else {
				p.qstack = append(p.qstack, o.offset+o.index)
			}
		}
		err := p.applyGate(name, line, params, p.qstack[mark:])
		p.qstack = p.qstack[:mark]
		if err != nil {
			return err
		}
	}
	return nil
}

// applyGate applies one gate of a top-level statement: it resolves the
// name to a builtin op or a user definition and emits or inlines it.
func (p *parser) applyGate(name []byte, line int, params []float64, qubits []int) error {
	if op, ok := builtinOp(name); ok {
		return p.emitBuiltin(op, line, params, qubits)
	}
	def, ok := p.defs[string(name)]
	if !ok {
		return fmt.Errorf("qasm: line %d: unknown gate %q", line, name)
	}
	return p.inline(def, line, params, qubits, 0)
}

// inline expands an application of a user-defined gate. params and qubits
// are on p.fstack and p.qstack: each body statement pushes its own lists
// above them and pops them afterwards, so the caller's lists stay intact
// (an append that moves a stack leaves the old array, which they still
// view, unchanged).
func (p *parser) inline(def *gateDef, line int, params []float64, qubits []int, depth int) error {
	if len(params) != def.params {
		return fmt.Errorf("qasm: line %d: gate %q expects %d params, got %d", line, def.name, def.params, len(params))
	}
	if len(qubits) != def.args {
		return fmt.Errorf("qasm: line %d: gate %q expects %d qubits, got %d", line, def.name, def.args, len(qubits))
	}
	for i := range def.body {
		if err := p.applyBodyStmt(def, &def.body[i], line, params, qubits, depth); err != nil {
			return err
		}
	}
	return nil
}

// applyBodyStmt applies one statement of def's body, bound to an
// application's parameters and qubits.
func (p *parser) applyBodyStmt(def *gateDef, st *bodyStmt, line int, params []float64, qubits []int, depth int) error {
	qmark, fmark := len(p.qstack), len(p.fstack)
	defer func() { p.qstack, p.fstack = p.qstack[:qmark], p.fstack[:fmark] }()
	for _, a := range st.args {
		if a < 0 {
			return fmt.Errorf("qasm: gate %q: unbound argument %q", def.name, st.unbound)
		}
		p.qstack = append(p.qstack, qubits[a])
	}
	qs := p.qstack[qmark:]
	if st.barrier {
		return p.emit(circuit.Gate{Op: circuit.OpBarrier, Qubits: p.ownQubits(qs)}, line)
	}
	for _, e := range st.params {
		v, err := eval(def.exprs, e, params)
		if err != nil {
			return fmt.Errorf("qasm: gate %q: %w", def.name, err)
		}
		p.fstack = append(p.fstack, v)
	}
	sub := p.fstack[fmark:]
	if depth+1 > maxInlineDepth {
		return fmt.Errorf("qasm: line %d: gate %q expands too deep (recursive definition?)", line, st.name)
	}
	if st.builtin {
		return p.emitBuiltin(st.op, line, sub, qs)
	}
	callee, ok := p.defs[st.name]
	if !ok {
		return fmt.Errorf("qasm: line %d: unknown gate %q", line, st.name)
	}
	return p.inline(callee, line, sub, qs, depth+1)
}

// emitBuiltin emits a builtin gate, copying its lists into the arenas.
func (p *parser) emitBuiltin(op circuit.Op, line int, params []float64, qubits []int) error {
	g := circuit.Gate{Op: op, Qubits: p.ownQubits(qubits)}
	if len(params) > 0 {
		g.Params = p.farena.Take(len(params))
		copy(g.Params, params)
	}
	return p.emit(g, line)
}

func (p *parser) ownQubits(qs []int) []int {
	out := p.qarena.Take(len(qs))
	copy(out, qs)
	return out
}

func (p *parser) ownQubit(q int) []int {
	out := p.qarena.Take(1)
	out[0] = q
	return out
}

// emit validates g against the circuit and appends it.
func (p *parser) emit(g circuit.Gate, line int) error {
	if err := p.circ.TryAdd(g); err != nil {
		return fmt.Errorf("qasm: line %d: %v", line, err)
	}
	return nil
}

// builtinOp resolves a gate name exactly as circuit.OpByName(string(name))
// does — case-insensitively, with its aliases — without allocating for
// ASCII names. Builtins are looked up before user definitions.
func builtinOp(name []byte) (circuit.Op, bool) {
	var low [8]byte
	for _, c := range name {
		if c >= 0x80 {
			return circuit.OpByName(string(name))
		}
	}
	if len(name) > len(low) {
		return 0, false
	}
	for i, c := range name {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		low[i] = c
	}
	switch string(low[:len(name)]) {
	case "id":
		return circuit.OpID, true
	case "x":
		return circuit.OpX, true
	case "y":
		return circuit.OpY, true
	case "z":
		return circuit.OpZ, true
	case "h":
		return circuit.OpH, true
	case "s":
		return circuit.OpS, true
	case "sdg":
		return circuit.OpSdg, true
	case "t":
		return circuit.OpT, true
	case "tdg":
		return circuit.OpTdg, true
	case "sx":
		return circuit.OpSX, true
	case "rx":
		return circuit.OpRX, true
	case "ry":
		return circuit.OpRY, true
	case "rz":
		return circuit.OpRZ, true
	case "u1", "p", "phase":
		return circuit.OpU1, true
	case "u2":
		return circuit.OpU2, true
	case "u3", "u":
		return circuit.OpU3, true
	case "cx", "cnot":
		return circuit.OpCX, true
	case "cz":
		return circuit.OpCZ, true
	case "swap":
		return circuit.OpSwap, true
	case "cp", "cphase", "cu1":
		return circuit.OpCP, true
	case "rzz":
		return circuit.OpRZZ, true
	case "rxx", "xx", "ms":
		return circuit.OpRXX, true
	case "ccx", "tof", "toffoli":
		return circuit.OpCCX, true
	case "measure":
		return circuit.OpMeasure, true
	case "reset":
		return circuit.OpReset, true
	case "barrier":
		return circuit.OpBarrier, true
	}
	return 0, false
}

// parseGateDef parses "gate name(params)? args { body }".
func (p *parser) parseGateDef() error {
	p.take() // gate
	id, err := p.expectIdent()
	if err != nil {
		return err
	}
	name := string(p.lx.text(id))
	var params, args []string
	if p.peekSymbol('(') {
		p.take()
		if !p.peekSymbol(')') {
			if params, err = p.parseNames(); err != nil {
				return err
			}
		}
		if err := p.expectSymbol(')'); err != nil {
			return err
		}
	}
	if args, err = p.parseNames(); err != nil {
		return err
	}
	if err := p.expectSymbol('{'); err != nil {
		return err
	}
	def := &gateDef{name: name, params: len(params), args: len(args)}
	p.scope, p.exprs = params, p.exprs[:0]
	defer func() { p.scope = nil }()
	for !p.peekSymbol('}') {
		if p.atEOF() {
			return fmt.Errorf("qasm: unterminated body of gate %q", name)
		}
		st, err := p.parseBodyStmt(args)
		if err != nil {
			return err
		}
		def.body = append(def.body, st)
	}
	p.take() // }
	def.exprs = append([]exprNode(nil), p.exprs...)
	p.defs[name] = def
	return nil
}

// parseNames parses a comma-separated identifier list, copying the names.
func (p *parser) parseNames() ([]string, error) {
	var names []string
	for {
		id, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		names = append(names, string(p.lx.text(id)))
		if !p.peekSymbol(',') {
			return names, nil
		}
		p.take()
	}
}

// parseBodyStmt parses one statement inside a gate body whose formal
// arguments are args.
func (p *parser) parseBodyStmt(args []string) (bodyStmt, error) {
	id, err := p.expectIdent()
	if err != nil {
		return bodyStmt{}, err
	}
	st := bodyStmt{name: string(p.lx.text(id))}
	st.op, st.builtin = builtinOp(p.lx.text(id))
	if st.name == "barrier" {
		st.barrier = true
	} else if err := p.parseParams(id.line, &st.params); err != nil {
		return bodyStmt{}, err
	}
	names, err := p.parseNames()
	if err != nil {
		return bodyStmt{}, err
	}
	if err := p.expectSymbol(';'); err != nil {
		return bodyStmt{}, err
	}
	st.args = make([]int, len(names))
	for i, n := range names {
		st.args[i] = -1
		for j, a := range args {
			if a == n {
				st.args[i] = j // the last of duplicate names wins
			}
		}
		if st.args[i] < 0 && st.unbound == "" {
			st.unbound = n
		}
	}
	return st, nil
}
