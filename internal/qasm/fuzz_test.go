package qasm

import (
	"math"
	"strings"
	"testing"

	"codar/internal/circuit"
)

// FuzzParseQASM feeds arbitrary byte strings to the parser. Two invariants:
// the parser must never panic (malformed input is an error, full stop), and
// any program it accepts must survive the same pipeline the service runs —
// Validate, Decompose, DAG construction, Depth — and round-trip through
// Write/Parse into an equal circuit.
//
// CI runs this with -fuzztime 30s (see .github/workflows); locally:
//
//	go test -run FuzzParseQASM -fuzz FuzzParseQASM -fuzztime 30s ./internal/qasm/
func FuzzParseQASM(f *testing.F) {
	f.Add("OPENQASM 2.0;\nqreg q[4];\ncreg c[4];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n")
	f.Add("qreg q[2];\nu3(pi/2,0,pi) q[0];\nrz(-1.5e-3) q[1];\ncx q[0],q[1];\n")
	f.Add("qreg q[3];\ngate foo(a) x, y { rz(a) x; cx x, y; }\nfoo(pi/4) q[0], q[2];\n")
	f.Add("qreg q[2];\nbarrier q;\nreset q[0];\nswap q[0],q[1];\n")
	f.Add("include \"qelib1.inc\";\nqreg r[1];\nopaque noise q;\nt r[0];\n")
	f.Add("qreg q[99999999999];\nh q[0];\n")
	f.Add("gate rec a { rec a; }\nqreg q[1];\nrec q[0];\n")
	f.Add("OPENQASM 2.0 qreg q[")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src) // must not panic; errors are fine
		if err != nil {
			return
		}
		// Accepted programs obey the parser's own bounds.
		if c.NumQubits <= 0 || c.NumQubits > maxQubits {
			t.Fatalf("accepted circuit with %d qubits (cap %d)", c.NumQubits, maxQubits)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted circuit fails Validate: %v", err)
		}
		// Bound the deep checks: huge register declarations with few gates
		// are legal, but running the full pipeline over them per fuzz
		// iteration is wasted time.
		if c.NumQubits > 4096 || len(c.Gates) > 4096 {
			return
		}
		low := circuit.Decompose(c)
		if !circuit.IsLowered(low) {
			t.Fatalf("Decompose left compound gates: %v", low.CountOps())
		}
		if d := c.Depth(); d < 0 || d > len(c.Gates) {
			t.Fatalf("depth %d out of range for %d gates", d, len(c.Gates))
		}
		_ = circuit.NewDAG(c)
		// Round-trip, except for non-finite parameters: expression
		// evaluation can overflow to ±Inf, which the text form has no
		// literal for.
		for _, g := range c.Gates {
			for _, p := range g.Params {
				if math.IsNaN(p) || math.IsInf(p, 0) {
					return
				}
			}
		}
		out := Write(c)
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Write output rejected: %v\n%s", err, out)
		}
		back.Name = c.Name
		if !c.Equal(back) {
			t.Fatalf("round trip diverged:\n%s", out)
		}
	})
}

// FuzzStreamQASM differentially fuzzes the streaming front end against the
// batch parser: for every input, Stream and Parse must reach the same
// accept/reject verdict, and on accept the stream must yield the identical
// gate sequence and register totals (checkStreamMatchesParse). Neither side
// may panic. Seeds cover the shapes where the two lexers could plausibly
// diverge — statements split across lines, CRLF endings, missing trailing
// newline, errors surfacing after gates have already been emitted — plus
// past parser crashers.
//
// CI runs this with -fuzztime 30s (see .github/workflows); locally:
//
//	go test -run FuzzStreamQASM -fuzz FuzzStreamQASM -fuzztime 30s ./internal/qasm/
func FuzzStreamQASM(f *testing.F) {
	f.Add("OPENQASM 2.0;\nqreg q[4];\ncreg c[4];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n")
	f.Add("qreg q[3];\ncx\n  q[0],\n  q[2];\n")
	f.Add("OPENQASM 2.0;\r\nqreg q[2];\r\nh q[0];\r\ncx q[0],q[1];")
	f.Add("qreg q[2];\ngate foo(t) a, b { rz(t) a; cx a, b; }\nfoo(pi/4) q[0], q[1];\n")
	f.Add("qreg q[2];\nh q[0];\ncx q[0];\n")                // arity error after a gate
	f.Add("qreg q[2];\nh q[0];\n\"unterminated\nh q[1];\n") // lex error after a gate
	f.Add("qreg q[2];\ncreg c[1];\nmeasure q[0] -> c[0];\nif (c == 1) x q[1];\n")
	f.Add("include \"qelib1.inc\";\nqreg r[1];\nopaque noise q;\nt r[0];\n")
	f.Add("gate rec A{}qreg q[1];rec q;") // past FuzzParseQASM crasher
	f.Add("OPENQASM 2.0 qreg q[")
	f.Fuzz(func(t *testing.T, src string) {
		checkStreamMatchesParse(t, src)
	})
}

// writeSpecials are the parameter values a shortest-round-trip float
// renderer is most likely to get wrong.
var writeSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -2.5e-310, math.SmallestNonzeroFloat64 * 3,
	1e300, -1e300, 1e-300, -1e-300, math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 1.0 / 3,
}

// FuzzWriteGate pins the append-based writer to the fmt-based oracle
// (oracle_test.go): for a random gate — any op, qubit indices up to 65535,
// measure/reset/barrier forms, and parameters drawn from the fuzzer or
// from writeSpecials (negative, subnormal, ±0, 1e±300, NaN, ±Inf) — Write,
// AppendGate and StreamWriter must each produce the oracle's bytes.
//
// CI runs this with -fuzztime 30s (see .github/workflows); locally:
//
//	go test -run FuzzWriteGate -fuzz FuzzWriteGate -fuzztime 30s ./internal/qasm/
func FuzzWriteGate(f *testing.F) {
	f.Add(uint8(circuit.OpU3), uint16(0), uint16(1), uint16(2), uint8(0), uint16(0), 0.5, -1e-300, 1e300, uint8(0))
	f.Add(uint8(circuit.OpMeasure), uint16(65535), uint16(0), uint16(0), uint8(0), uint16(65535), 0.0, 0.0, 0.0, uint8(0))
	f.Add(uint8(circuit.OpBarrier), uint16(7), uint16(300), uint16(65535), uint8(2), uint16(0), 0.0, 0.0, 0.0, uint8(0))
	f.Add(uint8(circuit.OpReset), uint16(12), uint16(0), uint16(0), uint8(0), uint16(0), 0.0, 0.0, 0.0, uint8(0))
	f.Add(uint8(circuit.OpU2), uint16(3), uint16(0), uint16(0), uint8(0), uint16(0), 0.0, 0.0, 0.0, uint8(0b111111))
	f.Add(uint8(circuit.OpRZZ), uint16(1), uint16(2), uint16(0), uint8(0), uint16(0), math.Inf(-1), 0.0, 0.0, uint8(0))
	f.Fuzz(func(t *testing.T, op uint8, a, b, c uint16, nq uint8, cbit uint16, p0, p1, p2 float64, special uint8) {
		g := circuit.Gate{Op: circuit.Op(op % uint8(circuit.OpBarrier+1))}
		qs := []int{int(a), int(b), int(c)}
		n := g.Op.NumQubits()
		if n == 0 {
			n = int(nq)%len(qs) + 1 // barrier
		}
		g.Qubits = qs[:n]
		if g.Op == circuit.OpMeasure {
			g.Cbit = int(cbit)
		}
		ps := []float64{p0, p1, p2}
		for i := range ps {
			if sel := int(special>>(2*i)) & 3; sel != 0 {
				ps[i] = writeSpecials[(int(special)+3*i+sel)%len(writeSpecials)]
			}
		}
		if k := g.Op.NumParams(); k > 0 {
			g.Params = ps[:k]
		}
		circ := &circuit.Circuit{NumQubits: 1 << 16, NumClbits: int(cbit) + 1, Gates: []circuit.Gate{g}}

		if got, want := Write(circ), oracleWrite(circ); got != want {
			t.Fatalf("Write = %q, oracle %q", got, want)
		}
		var line strings.Builder
		oracleGate(&line, g)
		prefix := []byte("kept;")
		if got := string(AppendGate(prefix, g)); got != "kept;"+line.String() {
			t.Fatalf("AppendGate = %q, oracle %q", got, line.String())
		}
		var out, header strings.Builder
		sw, err := NewStreamWriter(&out, circ.NumQubits, circ.NumClbits)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // the second gate reuses the buffer
			if err := sw.WriteGate(g); err != nil {
				t.Fatal(err)
			}
		}
		oracleHeader(&header, "", circ.NumQubits, circ.NumClbits)
		if want := header.String() + line.String() + line.String(); out.String() != want {
			t.Fatalf("StreamWriter = %q, oracle %q", out.String(), want)
		}
	})
}
