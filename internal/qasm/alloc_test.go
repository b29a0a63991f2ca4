package qasm

import (
	"io"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"codar/internal/circuit"
	"codar/internal/workloads"
)

// Allocation guards: the front end and the writer allocate nothing per
// gate on the streaming path (arena slabs aside), so a change that brings
// a per-token or per-gate allocation back fails here rather than eroding
// the qasm.parse / qasm.write rows of the benchmark ledger silently.

// allocGuardGates sizes the generated circuit: enough gates that the
// amortised arena slabs show as a fraction of an allocation per gate.
const allocGuardGates = 10_000

func allocGuardSource() (string, int) {
	c := workloads.Random(16, allocGuardGates, 45, 1) // 1q gates and cx
	return Write(c), c.Len()
}

func TestStreamWriterAllocatesNothing(t *testing.T) {
	sw, err := NewStreamWriter(io.Discard, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	gates := []circuit.Gate{
		circuit.New2Q(circuit.OpCX, 3, 15),
		circuit.New1QP(circuit.OpU3, 2, 0.25, -1e-300, 3.141592653589793),
		{Op: circuit.OpMeasure, Qubits: []int{7}, Cbit: 3},
		{Op: circuit.OpBarrier, Qubits: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
	}
	for _, g := range gates {
		sw.WriteGate(g) // grow the buffer to its working size
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, g := range gates {
			if err := sw.WriteGate(g); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("StreamWriter.WriteGate made %v allocations per %d gates, want 0", allocs, len(gates))
	}
}

func TestStreamParseAllocsPerGate(t *testing.T) {
	src, n := allocGuardSource()
	allocs := testing.AllocsPerRun(5, func() {
		s, err := NewStream(strings.NewReader(src))
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
	})
	t.Logf("streaming: %.4f allocations per gate", allocs/float64(n))
	if perGate := allocs / float64(n); perGate > 0.1 {
		t.Fatalf("streaming %d gates made %.3f allocations per gate, want <= 0.1", n, perGate)
	}
}

// TestParseAllocatesPerGateNotPerToken bounds batch Parse: allocations are
// arena slabs plus the circuit's gate slice, and the bytes allocated stay
// within twice the gate values themselves — far below what materialising
// the ~8 tokens of every gate line would take.
func TestParseAllocatesPerGateNotPerToken(t *testing.T) {
	src, n := allocGuardSource()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Parse: %.4f allocations per gate", allocs/float64(n))
	if perGate := allocs / float64(n); perGate > 0.1 {
		t.Fatalf("Parse made %.3f allocations per gate, want <= 0.1", perGate)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	gateSize := float64(unsafe.Sizeof(circuit.Gate{}))
	t.Logf("Parse: %.0f bytes per gate", float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
	if perGate := float64(after.TotalAlloc-before.TotalAlloc) / float64(n); perGate > 2*gateSize {
		t.Fatalf("Parse allocated %.0f bytes per gate, want <= %.0f (2 gate values)", perGate, 2*gateSize)
	}
}
