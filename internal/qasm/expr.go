package qasm

import (
	"fmt"
	"math"
	"strconv"
)

// exprNode is one node of a parameter expression (e.g. "pi/4",
// "-3*theta/2"). An expression is a run of nodes in a slice, children
// before parents, addressed by index: the parser builds top-level
// expressions in a reused scratch slice and evaluates them at once, and a
// gate definition keeps its body's nodes and evaluates them against each
// application's parameters.
type exprNode struct {
	op   exprOp
	val  float64 // opNum
	arg  int     // opVar: index into the enclosing definition's parameters, -1 if unbound
	name string  // opVar: the parameter name, for the unbound-parameter error
	x, y int32   // operands: unary and call use x, binary x and y
}

type exprOp uint8

const (
	opNum exprOp = iota
	opVar
	opNeg
	opPos
	opAdd
	opSub
	opMul
	opDiv
	opPow
	opSin
	opCos
	opTan
	opExp
	opLn
	opSqrt
)

// eval evaluates node i of nodes with the given parameter values. Operands
// are evaluated left to right and the first error wins.
func eval(nodes []exprNode, i int32, env []float64) (float64, error) {
	n := &nodes[i]
	switch n.op {
	case opNum:
		return n.val, nil
	case opVar:
		if n.arg < 0 {
			return 0, fmt.Errorf("qasm: unbound parameter %q", n.name)
		}
		return env[n.arg], nil
	}
	x, err := eval(nodes, n.x, env)
	if err != nil {
		return 0, err
	}
	switch n.op {
	case opNeg:
		return -x, nil
	case opPos:
		return x, nil
	case opSin:
		return math.Sin(x), nil
	case opCos:
		return math.Cos(x), nil
	case opTan:
		return math.Tan(x), nil
	case opExp:
		return math.Exp(x), nil
	case opLn:
		if x <= 0 {
			return 0, fmt.Errorf("qasm: ln of non-positive value")
		}
		return math.Log(x), nil
	case opSqrt:
		if x < 0 {
			return 0, fmt.Errorf("qasm: sqrt of negative value")
		}
		return math.Sqrt(x), nil
	}
	y, err := eval(nodes, n.y, env)
	if err != nil {
		return 0, err
	}
	switch n.op {
	case opAdd:
		return x + y, nil
	case opSub:
		return x - y, nil
	case opMul:
		return x * y, nil
	case opDiv:
		if y == 0 {
			return 0, fmt.Errorf("qasm: division by zero")
		}
		return x / y, nil
	}
	return math.Pow(x, y), nil // opPow
}

// node appends n to the expression scratch and returns its index.
func (p *parser) node(n exprNode) int32 {
	p.exprs = append(p.exprs, n)
	return int32(len(p.exprs) - 1)
}

// parseExpr parses an expression into p.exprs and returns its root, with
// standard precedence: unary +/- < ^ (right assoc) < * / < + -. Parameter
// names resolve against p.scope, the parameters of the gate definition
// being parsed (none at top level).
func (p *parser) parseExpr() (int32, error) {
	return p.parseAdditive()
}

func (p *parser) parseAdditive() (int32, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return 0, err
	}
	for p.peekSymbol('+') || p.peekSymbol('-') {
		op := opAdd
		if p.take().sym == '-' {
			op = opSub
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return 0, err
		}
		l = p.node(exprNode{op: op, x: l, y: r})
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (int32, error) {
	l, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	for p.peekSymbol('*') || p.peekSymbol('/') {
		op := opMul
		if p.take().sym == '/' {
			op = opDiv
		}
		r, err := p.parseUnary()
		if err != nil {
			return 0, err
		}
		l = p.node(exprNode{op: op, x: l, y: r})
	}
	return l, nil
}

// parseUnary binds looser than ^ so that -2^2 == -(2^2), matching the
// usual mathematical convention.
func (p *parser) parseUnary() (int32, error) {
	if p.peekSymbol('-') || p.peekSymbol('+') {
		op := opPos
		if p.take().sym == '-' {
			op = opNeg
		}
		x, err := p.parseUnary()
		if err != nil {
			return 0, err
		}
		return p.node(exprNode{op: op, x: x}), nil
	}
	return p.parsePower()
}

func (p *parser) parsePower() (int32, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return 0, err
	}
	if p.peekSymbol('^') {
		p.take()
		// Right associative; the exponent may carry its own unary sign.
		r, err := p.parseUnary()
		if err != nil {
			return 0, err
		}
		return p.node(exprNode{op: opPow, x: l, y: r}), nil
	}
	return l, nil
}

func (p *parser) parsePrimary() (int32, error) {
	t := p.take()
	switch t.kind {
	case tokNumber:
		text := p.lx.text(t)
		v, err := strconv.ParseFloat(string(text), 64)
		if err != nil {
			return 0, fmt.Errorf("qasm: line %d: bad number %q", t.line, text)
		}
		return p.node(exprNode{op: opNum, val: v}), nil
	case tokIdent:
		text := p.lx.text(t)
		if string(text) == "pi" {
			return p.node(exprNode{op: opNum, val: math.Pi}), nil
		}
		if fn, ok := function(text); ok {
			if err := p.expectSymbol('('); err != nil {
				return 0, err
			}
			x, err := p.parseExpr()
			if err != nil {
				return 0, err
			}
			if err := p.expectSymbol(')'); err != nil {
				return 0, err
			}
			return p.node(exprNode{op: fn, x: x}), nil
		}
		arg := -1
		for i, name := range p.scope {
			if name == string(text) {
				arg = i // the last of duplicate names wins
			}
		}
		return p.node(exprNode{op: opVar, arg: arg, name: string(text)}), nil
	case tokSymbol:
		if t.sym == '(' {
			x, err := p.parseExpr()
			if err != nil {
				return 0, err
			}
			if err := p.expectSymbol(')'); err != nil {
				return 0, err
			}
			return x, nil
		}
	}
	return 0, fmt.Errorf("qasm: line %d: unexpected token %s in expression", t.line, p.describe(t))
}

// function resolves a built-in function name.
func function(name []byte) (exprOp, bool) {
	switch string(name) {
	case "sin":
		return opSin, true
	case "cos":
		return opCos, true
	case "tan":
		return opTan, true
	case "exp":
		return opExp, true
	case "ln":
		return opLn, true
	case "sqrt":
		return opSqrt, true
	}
	return 0, false
}
