package smp

import (
	"testing"

	"github.com/unifdist/unifdist/internal/rng"
	"github.com/unifdist/unifdist/internal/tester"
)

func TestTrivialEquality(t *testing.T) {
	te, err := NewTrivialEquality(64)
	if err != nil {
		t.Fatal(err)
	}
	x := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	y := append([]byte(nil), x...)
	acc, err := te.Run(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !acc {
		t.Error("equal inputs rejected")
	}
	y[3] ^= 0x10
	acc, err = te.Run(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acc {
		t.Error("unequal inputs accepted")
	}
	if te.MessageBits() != 64 {
		t.Errorf("cost %d, want 64", te.MessageBits())
	}
	if _, err := te.Run([]byte{1}, y, nil); err == nil {
		t.Error("short input accepted")
	}
	if _, err := NewTrivialEquality(0); err == nil {
		t.Error("nBits=0 accepted")
	}
}

func TestSingleCellEqualityCompleteness(t *testing.T) {
	sc, err := NewSingleCellEquality(128, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	x := make([]byte, 16)
	for i := range x {
		x[i] = byte(i)
	}
	for trial := 0; trial < 2000; trial++ {
		acc, err := sc.Run(x, x, r)
		if err != nil {
			t.Fatal(err)
		}
		if !acc {
			t.Fatal("equal inputs rejected")
		}
	}
}

func TestSingleCellEqualityDetectionGrowsWithReps(t *testing.T) {
	r := rng.New(7)
	x := make([]byte, 16)
	y := make([]byte, 16)
	y[0] = 1
	prev := -1.0
	for _, reps := range []int{4, 32, 128} {
		sc, err := NewSingleCellEquality(128, reps)
		if err != nil {
			t.Fatal(err)
		}
		rej, err := sc.EstimateRejectProb(x, y, 4000, 0, r)
		if err != nil {
			t.Fatal(err)
		}
		if rej < prev {
			t.Fatalf("reps=%d: rejection %v decreased from %v", reps, rej, prev)
		}
		prev = rej
	}
	if prev < 0.2 {
		t.Errorf("128 probes detect a far pair with prob only %v", prev)
	}
}

func TestSingleCellEqualityValidation(t *testing.T) {
	if _, err := NewSingleCellEquality(0, 4); err == nil {
		t.Error("nBits=0 accepted")
	}
	if _, err := NewSingleCellEquality(64, 0); err == nil {
		t.Error("reps=0 accepted")
	}
}

func buildGapTester(delta float64) func(domain int) (tester.Tester, error) {
	return func(domain int) (tester.Tester, error) {
		// The reduction guarantees a 1/6 L1 gap; ε = 1/6 in the tester.
		return tester.NewSingleCollision(domain, delta, 1.0/6)
	}
}

func TestReductionGapIsSixth(t *testing.T) {
	e, err := NewEqualityFromTester(96, buildGapTester(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if e.Gap() < 1.0/6 {
		t.Fatalf("reduction gap %v < 1/6", e.Gap())
	}
	if e.Domain() != 2*24*16 { // 96 bits → 8 symbols → RS 16 → ×24 bits = 384; domain 768
		t.Fatalf("domain %d, want 768", e.Domain())
	}
}

func TestReductionEqualInputsLookUniform(t *testing.T) {
	// With X = Y the referee's merged stream is perfectly uniform on [2m],
	// so the tester's acceptance probability must match its completeness
	// 1 − δ.
	delta := 0.1
	e, err := NewEqualityFromTester(96, buildGapTester(delta))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	x := make([]byte, 12)
	for i := range x {
		x[i] = byte(3 * i)
	}
	acc, err := e.EstimateAcceptProb(x, x, 20000, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 1-delta-0.02 {
		t.Fatalf("equal inputs accepted with prob %v, want ≥ %v", acc, 1-delta)
	}
}

func TestReductionUnequalInputsRejectedMoreOften(t *testing.T) {
	// The (δ, 1+γε²)-gap must survive the reduction: unequal inputs are
	// rejected strictly more often than equal ones.
	delta := 0.2
	e, err := NewEqualityFromTester(96, buildGapTester(delta))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	x := make([]byte, 12)
	y := append([]byte(nil), x...)
	y[0] = 0xff // many flipped bits: well past the distance bound
	const trials = 40000
	accEq, err := e.EstimateAcceptProb(x, x, trials, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	accNeq, err := e.EstimateAcceptProb(x, y, trials, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if accNeq >= accEq {
		t.Fatalf("no separation: accept(neq)=%v ≥ accept(eq)=%v", accNeq, accEq)
	}
}

func TestReductionMessageCost(t *testing.T) {
	// Theorem 7.1: cost = q·log(domain) bits, split across the two players.
	e, err := NewEqualityFromTester(96, buildGapTester(0.1))
	if err != nil {
		t.Fatal(err)
	}
	bits, err := e.MessageBits()
	if err != nil {
		t.Fatal(err)
	}
	inner, err := buildGapTester(0.1)(e.Domain())
	if err != nil {
		t.Fatal(err)
	}
	logD := 1
	for 1<<logD < e.Domain() {
		logD++
	}
	want := (inner.SampleSize() + 1) / 2 * logD
	if bits != want {
		t.Fatalf("cost %d, want %d", bits, want)
	}
}

func TestReductionValidation(t *testing.T) {
	if _, err := NewEqualityFromTester(0, buildGapTester(0.1)); err == nil {
		t.Error("nBits=0 accepted")
	}
	if _, err := NewEqualityFromTester(64, nil); err == nil {
		t.Error("nil constructor accepted")
	}
}

func BenchmarkReductionRun(b *testing.B) {
	e, err := NewEqualityFromTester(96, buildGapTester(0.1))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	x := make([]byte, 12)
	y := make([]byte, 12)
	y[0] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(x, y, r); err != nil {
			b.Fatal(err)
		}
	}
}
