package qasm

import (
	"fmt"
	"strconv"
	"strings"

	"codar/internal/circuit"
)

// lexed is one token with its text copied out of the lexer buffer.
type lexed struct {
	kind tokenKind
	text string
	line int
}

// tokenize runs the lexer over a whole source and collects its tokens,
// ending with tokEOF.
func tokenize(src string) ([]lexed, error) {
	l := newLexer(strings.NewReader(src))
	var out []lexed
	for {
		t := l.next()
		if l.err != nil {
			return nil, l.err
		}
		out = append(out, lexed{kind: t.kind, text: string(l.text(t)), line: t.line})
		if t.kind == tokEOF {
			return out, nil
		}
	}
}

// oracleWrite is the reference renderer the append-based writer must
// match byte for byte: the straightforward fmt/strings.Builder rendering
// of the OpenQASM text Write documents.
func oracleWrite(c *circuit.Circuit) string {
	var b strings.Builder
	oracleHeader(&b, c.Name, c.NumQubits, c.NumClbits)
	for _, g := range c.Gates {
		oracleGate(&b, g)
	}
	return b.String()
}

func oracleHeader(b *strings.Builder, name string, numQubits, numClbits int) {
	b.WriteString("OPENQASM 2.0;\n")
	b.WriteString("include \"qelib1.inc\";\n")
	if name != "" {
		fmt.Fprintf(b, "// circuit: %s\n", name)
	}
	fmt.Fprintf(b, "qreg q[%d];\n", numQubits)
	if numClbits > 0 {
		fmt.Fprintf(b, "creg c[%d];\n", numClbits)
	}
}

func oracleGate(b *strings.Builder, g circuit.Gate) {
	switch g.Op {
	case circuit.OpMeasure:
		fmt.Fprintf(b, "measure q[%d] -> c[%d];\n", g.Qubits[0], g.Cbit)
		return
	case circuit.OpBarrier:
		b.WriteString("barrier ")
		oracleQubits(b, g.Qubits)
		b.WriteString(";\n")
		return
	case circuit.OpReset:
		fmt.Fprintf(b, "reset q[%d];\n", g.Qubits[0])
		return
	}
	b.WriteString(g.Op.Name())
	if len(g.Params) > 0 {
		b.WriteByte('(')
		for i, p := range g.Params {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(p, 'g', -1, 64))
		}
		b.WriteByte(')')
	}
	b.WriteByte(' ')
	oracleQubits(b, g.Qubits)
	b.WriteString(";\n")
}

func oracleQubits(b *strings.Builder, qs []int) {
	for i, q := range qs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "q[%d]", q)
	}
}
