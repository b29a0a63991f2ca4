package qasm

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"codar/internal/circuit"
)

// drainStream collects every gate a Stream over src yields, or the
// terminal error.
func drainStream(src string) (*circuit.Circuit, error) {
	return drainReader(strings.NewReader(src))
}

// drainReader is drainStream over any reader.
func drainReader(r io.Reader) (*circuit.Circuit, error) {
	s, err := NewStream(r)
	if err != nil {
		return nil, err
	}
	c := &circuit.Circuit{NumQubits: s.NumQubits(), NumClbits: s.NumClbits()}
	for {
		g, err := s.Next()
		if err == io.EOF {
			// Clbits may have grown via measure statements.
			c.NumClbits = s.NumClbits()
			return c, nil
		}
		if err != nil {
			return nil, err
		}
		c.Gates = append(c.Gates, g)
	}
}

// checkStreamMatchesParse pins the streaming front end's contract: same
// accept/reject verdict as Parse and, on accept, the identical gate
// sequence and register totals. The stream is also read one byte per
// Read, with io.EOF arriving together with the last byte, which moves every
// lexer refill into the middle of statements and tokens: that must change
// neither the gates nor the error.
func checkStreamMatchesParse(t *testing.T, src string) {
	t.Helper()
	want, werr := Parse(src)
	got, gerr := drainStream(src)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("verdict mismatch: Parse err=%v, Stream err=%v\nsource:\n%s", werr, gerr, src)
	}
	slow, serr := drainReader(iotest.DataErrReader(iotest.OneByteReader(strings.NewReader(src))))
	if fmt.Sprint(serr) != fmt.Sprint(gerr) {
		t.Fatalf("one-byte reads changed the error: %v, want %v\nsource:\n%s", serr, gerr, src)
	}
	if werr != nil {
		return
	}
	checkSameGates(t, "one-byte stream", slow, got)
	checkSameGates(t, "stream", got, want)
}

// checkSameGates compares a streamed circuit against the batch one.
func checkSameGates(t *testing.T, what string, got, want *circuit.Circuit) {
	t.Helper()
	if got.NumQubits != want.NumQubits || got.NumClbits != want.NumClbits {
		t.Fatalf("register mismatch: %s %d/%d, batch %d/%d",
			what, got.NumQubits, got.NumClbits, want.NumQubits, want.NumClbits)
	}
	if len(got.Gates) != len(want.Gates) {
		t.Fatalf("gate count mismatch: %s %d, batch %d", what, len(got.Gates), len(want.Gates))
	}
	for i := range got.Gates {
		if !got.Gates[i].Equal(want.Gates[i]) {
			t.Fatalf("gate %d mismatch: %s %v, batch %v", i, what, got.Gates[i], want.Gates[i])
		}
	}
}

func TestStreamMatchesParse(t *testing.T) {
	cases := []string{
		"OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n",
		"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q;\nmeasure q -> c;\n",
		"qreg q[4];\nu3(0.1,0.2,0.3) q[2];\nccx q[0],q[1],q[2];\nbarrier q;\nreset q[3];\n",
		"OPENQASM 2.0;\nqreg a[2];\nqreg b[2];\ncx a[0],b[1];\nswap a[1],b[0];\n",
		"qreg q[2];\ngate foo(t) a, b { rz(t) a; cx a, b; rz(-t) b; }\nfoo(0.5) q[0], q[1];\n",
		"qreg q[1];\n// comment line\nrx(pi/2) q[0];\nrz(2*pi) q[0];\n",
		"qreg q[2];\ncreg c[1];\nmeasure q[0] -> c[0];\nif (c == 1) x q[1];\n",
		// Windows line endings and no trailing newline.
		"OPENQASM 2.0;\r\nqreg q[2];\r\nh q[0];\r\ncx q[0],q[1];",
		// Statement split across lines.
		"qreg q[3];\ncx\n  q[0],\n  q[2];\n",
		// Empty program bodies and header-only forms.
		"OPENQASM 2.0;\nqreg q[2];\n",
		// Rejections: lex error, parse error, missing register, bad index.
		"qreg q[2];\nh q[0];\n\"unterminated\nh q[1];\n",
		"qreg q[2];\nh q[0]\ncx q[0],q[1];\n",
		"OPENQASM 2.0;\nh q[0];\n",
		"qreg q[2];\nh q[5];\n",
		"qreg q[99999999];\nh q[0];\n",
		"",
		"OPENQASM 2.0;\n",
		"gate foo a { h a; }\n",
	}
	for i, src := range cases {
		src := src
		t.Run(strings.ReplaceAll(src[:min(len(src), 24)], "\n", "¶")+"#"+string(rune('a'+i)), func(t *testing.T) {
			checkStreamMatchesParse(t, src)
		})
	}
}

func TestStreamHeaderKnownUpFront(t *testing.T) {
	src := "OPENQASM 2.0;\nqreg q[5];\ncreg c[3];\nh q[0];\ncx q[0],q[4];\n"
	s, err := NewStream(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumQubits() != 5 || s.NumClbits() != 3 {
		t.Fatalf("header = %d/%d, want 5/3", s.NumQubits(), s.NumClbits())
	}
	n := 0
	for {
		if _, err := s.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 || s.Gates() != 2 {
		t.Fatalf("gates = %d (counter %d), want 2", n, s.Gates())
	}
}

func TestStreamErrorSticky(t *testing.T) {
	src := "qreg q[2];\nh q[0];\ncx q[0];\n" // arity error mid-stream
	s, err := NewStream(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatalf("first gate: %v", err)
	}
	_, err1 := s.Next()
	if err1 == nil || err1 == io.EOF {
		t.Fatalf("want terminal parse error, got %v", err1)
	}
	if _, err2 := s.Next(); err2 != err1 {
		t.Fatalf("error not sticky: %v then %v", err1, err2)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestStreamLongStatement streams a gate definition far longer than the
// lexer buffer, one byte per read: every token of the statement must stay
// readable while the buffer refills and grows under it.
func TestStreamLongStatement(t *testing.T) {
	var b strings.Builder
	b.WriteString("qreg q[3];\ngate long(theta) a, b, c {\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&b, "  rz(theta*%d/7) a; cx a,\n    b; u3(theta, -theta/2, %d) c;\n", i, i)
	}
	b.WriteString("}\nlong(0.25) q[0], q[1], q[2];\nh q[0];\n")
	src := b.String()
	if len(src) < 4*lexBufSize {
		t.Fatalf("statement of %d bytes does not outgrow the %d-byte buffer", len(src), lexBufSize)
	}
	checkStreamMatchesParse(t, src)
}

// TestStreamBufferStaysSmall pins the lexer's residency: blank and comment
// lines between statements, and a long run of statements, are dropped on
// refill instead of accumulating in the buffer.
func TestStreamBufferStaysSmall(t *testing.T) {
	var b strings.Builder
	b.WriteString("qreg q[2];\nh q[0];\n")
	for i := 0; i < 5000; i++ {
		b.WriteString("// a comment line between two statements\n\n")
	}
	for i := 0; i < 5000; i++ {
		b.WriteString("cx q[0], q[1];\n")
	}
	s, err := NewStream(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := s.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.p.lx.buf); got != lexBufSize {
		t.Fatalf("lexer buffer grew to %d bytes, want %d", got, lexBufSize)
	}
	if s.Gates() != 5001 {
		t.Fatalf("gates = %d, want 5001", s.Gates())
	}
}
