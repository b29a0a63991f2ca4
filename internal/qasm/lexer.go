// Package qasm implements an OpenQASM 2.0 frontend (lexer, recursive-
// descent parser with user-defined gate inlining, expression evaluator)
// and a writer, covering the language subset used by the paper's benchmark
// suites (IBM Qiskit, RevLib translations, ScaffCC and Quipper output).
package qasm

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber // integer or real literal
	tokString // "..."
	tokSymbol // punctuation and operators
)

// Symbols are identified by one byte: the character itself for the
// one-character symbols, and the first character with the high bit set for
// the two two-character ones.
const (
	symArrow byte = 0x80 | '-' // "->"
	symEqEq  byte = 0x80 | '=' // "=="
)

// symText renders a symbol code as its source text.
func symText(s byte) string {
	switch s {
	case symArrow:
		return "->"
	case symEqEq:
		return "=="
	}
	return string(rune(s))
}

// token is one lexical unit: its kind (and symbol code), the input offsets
// of its text (for strings, without the quotes) and its source line for
// diagnostics. The text lives in the lexer's buffer; see lexer.keep for how
// long it stays there.
type token struct {
	kind       tokenKind
	sym        byte
	start, end int
	line       int
}

// Byte classes, precomputed from the rune predicates below for every byte
// value. The lexer reads bytes, so a byte >= 0x80 is classified as the
// Latin-1 rune of the same value, exactly as rune(c) does.
const (
	clsIdentStart uint8 = 1 << iota
	clsIdentPart
	clsDigit
	clsSymbol // a one-character symbol
	clsBlank  // whitespace the lexer skips: ' ', '\t', '\r', '\n'
)

var byteClass = func() (t [256]uint8) {
	for i := range t {
		r := rune(i)
		if isIdentStart(r) {
			t[i] |= clsIdentStart
		}
		if isIdentPart(r) {
			t[i] |= clsIdentPart
		}
		if unicode.IsDigit(r) {
			t[i] |= clsDigit
		}
		if strings.ContainsRune("(){}[];,+-*/^=", r) {
			t[i] |= clsSymbol
		}
		if strings.ContainsRune(" \t\r\n", r) {
			t[i] |= clsBlank
		}
	}
	return t
}()

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

// lexBufSize is the lexer's initial buffer; it grows only for a statement
// longer than the buffer.
const lexBufSize = 4096

// maxEmptyReads bounds consecutive empty reads before the lexer gives up on
// a reader that makes no progress (the bound bufio uses).
const maxEmptyReads = 100

// lexer scans OpenQASM source from a reader into one reused buffer. Parse
// and Stream both run on it. No token in the grammar spans a newline
// (strings and // comments are line-bounded and every lookahead stops at
// '\n'), so the lexer only scans complete lines: buf[:lim] always ends on
// a line boundary or at end of input, and scanning never needs a byte past
// lim.
//
// A token's text is buf[start-base : end-base]. When the lexer refills, it
// drops the bytes before keep and slides the rest down, so a token stays
// readable as long as keep is at or before its start. The parser sets keep
// to the first token of the statement it is parsing, which keeps every
// token of a statement valid until the statement ends, even across lines.
type lexer struct {
	r    io.Reader
	buf  []byte
	n    int // bytes of buf holding input
	lim  int // buf[:lim] ends on a line boundary (or at end of input)
	pos  int // scan position in buf
	base int // input offset of buf[0]
	keep int // input offset; bytes before it may be dropped (release: up to pos)
	line int
	eof  bool  // reader exhausted
	err  error // sticky lexical or read error
}

// release is the keep value that lets a refill drop every scanned byte.
const release = -1

func newLexer(r io.Reader) *lexer {
	return &lexer{r: r, buf: make([]byte, lexBufSize), keep: release, line: 1}
}

// text returns the token's source text (valid while keep <= t.start).
func (l *lexer) text(t token) []byte {
	return l.buf[t.start-l.base : t.end-l.base]
}

// next returns the next token, skipping whitespace and // comments. A
// lexical or read error is sticky: next records it in err and returns a
// zero token (tokEOF on line 0) from then on.
func (l *lexer) next() token {
	for l.err == nil {
		buf, pos := l.buf[:l.lim], l.pos
		for pos < len(buf) {
			c := buf[pos]
			if byteClass[c]&clsBlank == 0 {
				if c != '/' || pos+1 >= len(buf) || buf[pos+1] != '/' {
					l.pos = pos
					return l.scan(buf)
				}
				for pos < len(buf) && buf[pos] != '\n' { // a // comment
					pos++
				}
				continue
			}
			if c == '\n' {
				l.line++
			}
			pos++
		}
		l.pos = pos
		if l.eof {
			return token{kind: tokEOF, start: l.base + pos, end: l.base + pos, line: l.line}
		}
		l.err = l.fill()
	}
	return token{}
}

// scan lexes the token starting at buf[l.pos], which is not blank. buf is
// the scannable part of the buffer.
func (l *lexer) scan(buf []byte) token {
	start := l.pos
	end := start + 1
	c := buf[start]
	t := token{kind: tokSymbol, sym: c, start: l.base + start, line: l.line}
	switch cls := byteClass[c]; {
	case cls&clsIdentStart != 0:
		for end < len(buf) && byteClass[buf[end]]&clsIdentPart != 0 {
			end++
		}
		t.kind, t.sym = tokIdent, 0
	case cls&clsDigit != 0 || (c == '.' && end < len(buf) && byteClass[buf[end]]&clsDigit != 0):
		end = scanNumber(buf, start)
		t.kind, t.sym = tokNumber, 0
	case c == '"':
		for end < len(buf) && buf[end] != '"' && buf[end] != '\n' {
			end++
		}
		if end >= len(buf) || buf[end] == '\n' {
			l.err = fmt.Errorf("qasm: line %d: unterminated string", l.line)
			return token{}
		}
		t.kind, t.sym, t.start = tokString, 0, t.start+1
		l.pos = end + 1
		t.end = l.base + end
		return t
	case end < len(buf) && (c == '-' && buf[end] == '>' || c == '=' && buf[end] == '='):
		end++ // "->" or "=="
		t.sym = 0x80 | c
	case cls&clsSymbol != 0:
	default:
		l.err = fmt.Errorf("qasm: line %d: unexpected character %q", l.line, c)
		return token{}
	}
	l.pos = end
	t.end = l.base + end
	return t
}

// scanNumber returns the end of the integer or real literal (with optional
// exponent) starting at buf[pos].
func scanNumber(buf []byte, pos int) int {
	pos = skipDigits(buf, pos)
	if pos < len(buf) && buf[pos] == '.' {
		pos = skipDigits(buf, pos+1)
	}
	if pos < len(buf) && (buf[pos] == 'e' || buf[pos] == 'E') {
		exp := pos + 1
		if exp < len(buf) && (buf[exp] == '+' || buf[exp] == '-') {
			exp++
		}
		if exp < len(buf) && byteClass[buf[exp]]&clsDigit != 0 {
			pos = skipDigits(buf, exp)
		} // else not an exponent after all
	}
	return pos
}

func skipDigits(buf []byte, pos int) int {
	for pos < len(buf) && byteClass[buf[pos]]&clsDigit != 0 {
		pos++
	}
	return pos
}

// fill makes at least one more complete line (or the end of input)
// scannable. It first drops the bytes before keep, never any at or past
// pos, then reads until a newline arrives, growing the buffer only when
// the kept bytes fill it.
func (l *lexer) fill() error {
	drop := l.pos
	if l.keep != release && l.keep-l.base < drop {
		drop = l.keep - l.base
	}
	if drop > 0 {
		l.n = copy(l.buf, l.buf[drop:l.n])
		l.base += drop
		l.pos -= drop
		l.lim -= drop
	}
	for empty := 0; ; {
		if l.n == len(l.buf) {
			grown := make([]byte, 2*len(l.buf))
			copy(grown, l.buf[:l.n])
			l.buf = grown
		}
		m, err := l.r.Read(l.buf[l.n:])
		if i := bytes.LastIndexByte(l.buf[l.n:l.n+m], '\n'); i >= 0 {
			l.lim = l.n + i + 1
		}
		l.n += m
		switch {
		case err == io.EOF:
			l.eof = true
			l.lim = l.n
			return nil
		case err != nil:
			return err
		case l.lim > l.pos:
			return nil
		case m == 0:
			if empty++; empty >= maxEmptyReads {
				return io.ErrNoProgress
			}
		}
	}
}
