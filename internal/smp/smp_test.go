package smp

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/unifdist/unifdist/internal/rng"
)

func TestNewEqualityValidation(t *testing.T) {
	if _, err := NewEquality(0, 0.01, 2); err == nil {
		t.Error("nBits=0 accepted")
	}
	if _, err := NewEquality(100, 0, 2); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := NewEquality(100, 0.01, 1); err == nil {
		t.Error("tau=1 accepted")
	}
	if _, err := NewEquality(100, 0.6, 2); err == nil {
		t.Error("τδ > 1 accepted")
	}
	// τδ close to 1 makes the chunk longer than the torus side.
	if _, err := NewEquality(100, 0.4, 2); err == nil {
		t.Error("τδ = 0.8 should be infeasible (needs t > g)")
	}
}

func TestEqualInputsAlwaysAccepted(t *testing.T) {
	e, err := NewEquality(128, 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	x := make([]byte, 16)
	for i := range x {
		x[i] = byte(i * 17)
	}
	for trial := 0; trial < 5000; trial++ {
		acc, err := e.Run(x, x, r)
		if err != nil {
			t.Fatal(err)
		}
		if !acc {
			t.Fatal("equal inputs rejected (completeness must be perfect)")
		}
	}
}

func TestEqualInputsProperty(t *testing.T) {
	e, err := NewEquality(64, 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64, raw [8]byte) bool {
		r := rng.New(seed)
		x := raw[:]
		acc, err := e.Run(x, x, r)
		return err == nil && acc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnequalInputsRejectedAtGuaranteedRate(t *testing.T) {
	delta, tau := 0.01, 3.0
	e, err := NewEquality(96, delta, tau)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	x := make([]byte, 12)
	y := make([]byte, 12)
	y[0] = 1 // single-bit difference: the hardest unequal pair
	const trials = 60000
	rej, err := e.EstimateRejectProb(x, y, trials, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	want := e.GuaranteedReject()
	slack := 4 * math.Sqrt(want/trials)
	if rej < want-slack {
		t.Fatalf("rejection prob %v below guarantee τδ=%v (slack %v)", rej, want, slack)
	}
}

func TestRejectionScalesWithTau(t *testing.T) {
	delta := 0.01
	r := rng.New(31)
	x := make([]byte, 8)
	y := make([]byte, 8)
	y[3] = 0x80
	var prev float64
	for _, tau := range []float64{2, 4, 8} {
		e, err := NewEquality(64, delta, tau)
		if err != nil {
			t.Fatal(err)
		}
		rej, err := e.EstimateRejectProb(x, y, 40000, 0, r)
		if err != nil {
			t.Fatal(err)
		}
		if rej <= prev {
			t.Fatalf("τ=%v: rejection %v did not increase from %v", tau, rej, prev)
		}
		prev = rej
	}
}

func TestMessageCostScaling(t *testing.T) {
	// Lemma 7.3: cost O(√(τδn)). Quadrupling n should at most roughly
	// double the chunk, plus coordinate overhead.
	e1, err := NewEquality(1024, 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEquality(4096, 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(e2.ChunkLen()) / float64(e1.ChunkLen())
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("4×n changed chunk by %vx, want ~2x", ratio)
	}
	// And the cost stays far below sending the whole input.
	if e2.MessageBits() >= 4096 {
		t.Fatalf("message cost %d not sublinear in n=4096", e2.MessageBits())
	}
}

func TestChunkMatchesPaperFormula(t *testing.T) {
	// With the concatenated code, t should track the paper's ⌈√(24τδn)⌉ up
	// to the padding constant.
	n, delta, tau := 4096, 0.01, 2.0
	e, err := NewEquality(n, delta, tau)
	if err != nil {
		t.Fatal(err)
	}
	paper := math.Sqrt(24 * tau * delta * float64(n))
	ratio := float64(e.ChunkLen()) / paper
	if ratio < 0.8 || ratio > 1.6 {
		t.Fatalf("chunk %d vs paper formula %v (ratio %v)", e.ChunkLen(), paper, ratio)
	}
}

func TestRefereeGeometry(t *testing.T) {
	e, err := NewEquality(64, 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, tl := e.Grid(), e.ChunkLen()
	mk := func(row, col int, bits []bool) Message {
		return Message{Row: row, Col: col, Bits: bits}
	}
	ones := make([]bool, tl)
	zeros := make([]bool, tl)
	for i := range ones {
		ones[i] = true
	}
	// Intersecting chunks with differing bits must reject: Alice's column 0
	// rows 0..t−1 (all ones), Bob's row 0 columns 0..t−1 (all zeros);
	// shared cell (0,0).
	if e.Referee(mk(0, 0, ones), mk(0, 0, zeros)) {
		t.Error("differing shared cell accepted")
	}
	// Same but agreeing bits must accept.
	if !e.Referee(mk(0, 0, ones), mk(0, 0, ones)) {
		t.Error("agreeing shared cell rejected")
	}
	// Disjoint chunks (Bob's row far below Alice's chunk) must accept.
	farRow := (tl + 1) % g
	if farRow < tl { // grid too small to be disjoint; skip
		t.Skip("grid too small for disjoint case")
	}
	if !e.Referee(mk(0, 0, ones), mk(farRow, 0, zeros)) {
		t.Error("disjoint chunks rejected")
	}
}

func TestRefereeTorusWraparound(t *testing.T) {
	e, err := NewEquality(64, 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, tl := e.Grid(), e.ChunkLen()
	if tl < 2 {
		t.Skip("chunk too short for wraparound test")
	}
	ones := make([]bool, tl)
	zeros := make([]bool, tl)
	for i := range ones {
		ones[i] = true
	}
	// Alice starts at the last row; her chunk wraps to row 0, which is
	// Bob's row: cell (0, alice.Col) is shared via wraparound.
	alice := Message{Row: g - 1, Col: 0, Bits: ones}
	bob := Message{Row: 0, Col: 0, Bits: zeros}
	if e.Referee(alice, bob) {
		t.Error("wrapped intersection not detected")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	e, err := NewEquality(64, 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	m1, err := e.AliceMessage(x, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := e.AliceMessage(x, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if m1.Row != m2.Row || m1.Col != m2.Col {
		t.Fatal("same seed produced different chunks")
	}
}

func TestMessageBitsAccounting(t *testing.T) {
	e, err := NewEquality(256, 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	coord := int(math.Ceil(math.Log2(float64(e.Grid()))))
	if got, want := e.MessageBits(), 2*coord+e.ChunkLen(); got != want {
		t.Fatalf("MessageBits = %d, want %d", got, want)
	}
}

func BenchmarkEqualityRun(b *testing.B) {
	e, err := NewEquality(1024, 0.01, 2)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	x := make([]byte, 128)
	y := make([]byte, 128)
	y[0] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(x, y, r); err != nil {
			b.Fatal(err)
		}
	}
}
