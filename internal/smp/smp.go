// Package smp implements the simultaneous-message-passing (SMP) protocol
// for Equality with asymmetric error from Lemma 7.3: Alice and Bob hold
// n-bit inputs X and Y, each sends one short private-coin message to a
// referee, and the referee outputs 1 ("equal") or 0.
//
// Construction (following the paper's proof, with the Justesen code
// replaced by the concatenated code of package ecc): both players encode
// their input with a binary code C of relative distance ≥ 1/6, view the
// padded codeword as a g×g torus, and send a random axis-aligned chunk of
// t bits — Alice a vertical chunk, Bob a horizontal one. The chunks
// intersect in at most one cell; when they do, the referee compares the two
// bits there. Equal inputs are always accepted; inputs with X ≠ Y are
// rejected with probability ≥ (t²/m)·(d/m) ≥ τδ for t = ⌈√(τδ·m²/d)⌉.
package smp

import (
	"fmt"
	"math"

	"github.com/unifdist/unifdist/internal/ecc"
	"github.com/unifdist/unifdist/internal/rng"
)

// Message is one player's message to the referee: the chunk's starting
// cell plus t codeword bits.
type Message struct {
	// Row, Col are the torus coordinates of the chunk's first bit.
	Row, Col int
	// Bits is the chunk, length t: Alice's chunk walks down the rows of
	// one column, Bob's walks across the columns of one row.
	Bits []bool
}

// Equality is the Lemma 7.3 protocol for inputs of a fixed bit length.
type Equality struct {
	nBits int
	code  *ecc.Code
	grid  int // torus side g (m = g²)
	t     int // chunk length
	delta float64
	tau   float64
}

// NewEquality builds the protocol for nBits-bit inputs with target error
// profile (1−τδ, δ): equal inputs accepted always (≥ 1−δ), unequal inputs
// rejected with probability ≥ τδ.
func NewEquality(nBits int, delta, tau float64) (*Equality, error) {
	if nBits < 1 {
		return nil, fmt.Errorf("smp: nBits=%d < 1", nBits)
	}
	if delta <= 0 || tau <= 1 || tau*delta > 1 {
		return nil, fmt.Errorf("smp: need δ > 0, τ > 1, τδ ≤ 1 (got δ=%v τ=%v)", delta, tau)
	}
	code, err := ecc.NewCode(nBits)
	if err != nil {
		return nil, fmt.Errorf("smp: %w", err)
	}
	// Pad the codeword to the next torus m = g². (The paper uses
	// m = (6m₀)²; any perfect square works as long as the distance fraction
	// d/m is used exactly, which the t computation below does.)
	grid := int(math.Ceil(math.Sqrt(float64(code.CodeBits()))))
	m := grid * grid
	// Rejection probability ≥ (t²/m)·(d/m) ⇒ t = ⌈√(τδ·m²/d)⌉.
	d := float64(code.MinDistance())
	t := int(math.Ceil(math.Sqrt(tau * delta * float64(m) * float64(m) / d)))
	if t < 1 {
		t = 1
	}
	if t > grid {
		return nil, fmt.Errorf("smp: parameters need chunk %d > torus side %d; τδ=%v too large for n=%d",
			t, grid, tau*delta, nBits)
	}
	return &Equality{
		nBits: nBits,
		code:  code,
		grid:  grid,
		t:     t,
		delta: delta,
		tau:   tau,
	}, nil
}

// ChunkLen returns the chunk length t = Θ(√(τδn)).
func (e *Equality) ChunkLen() int { return e.t }

// Grid returns the torus side length g.
func (e *Equality) Grid() int { return e.grid }

// MessageBits returns the worst-case message cost in bits: two coordinates
// plus the chunk.
func (e *Equality) MessageBits() int {
	coord := int(math.Ceil(math.Log2(float64(e.grid))))
	return 2*coord + e.t
}

// AliceMessage encodes x and returns a random vertical chunk.
func (e *Equality) AliceMessage(x []byte, r *rng.RNG) (Message, error) {
	cw, err := e.code.Encode(x)
	if err != nil {
		return Message{}, err
	}
	row, col := r.Intn(e.grid), r.Intn(e.grid)
	bits := make([]bool, e.t)
	for i := range bits {
		bits[i] = e.bitAt(cw, (row+i)%e.grid, col)
	}
	return Message{Row: row, Col: col, Bits: bits}, nil
}

// BobMessage encodes y and returns a random horizontal chunk.
func (e *Equality) BobMessage(y []byte, r *rng.RNG) (Message, error) {
	cw, err := e.code.Encode(y)
	if err != nil {
		return Message{}, err
	}
	row, col := r.Intn(e.grid), r.Intn(e.grid)
	bits := make([]bool, e.t)
	for i := range bits {
		bits[i] = e.bitAt(cw, row, (col+i)%e.grid)
	}
	return Message{Row: row, Col: col, Bits: bits}, nil
}

// Referee outputs the protocol's decision: if the vertical and horizontal
// chunks share a torus cell, accept iff the two bits there agree;
// otherwise accept.
func (e *Equality) Referee(alice, bob Message) bool {
	// The shared cell, if any, is (bob.Row, alice.Col).
	di := (bob.Row - alice.Row + e.grid) % e.grid // index into Alice's chunk
	dj := (alice.Col - bob.Col + e.grid) % e.grid // index into Bob's chunk
	if di >= e.t || dj >= e.t {
		return true // no intersection
	}
	return alice.Bits[di] == bob.Bits[dj]
}

// Run executes one protocol instance end to end.
func (e *Equality) Run(x, y []byte, r *rng.RNG) (bool, error) {
	a, err := e.AliceMessage(x, r)
	if err != nil {
		return false, err
	}
	b, err := e.BobMessage(y, r)
	if err != nil {
		return false, err
	}
	return e.Referee(a, b), nil
}

// GuaranteedReject returns the protocol's lower bound τδ on the rejection
// probability of unequal inputs.
func (e *Equality) GuaranteedReject() float64 { return e.tau * e.delta }

// bitAt reads torus cell (row, col) of a padded codeword (cells beyond the
// codeword are zero padding).
func (e *Equality) bitAt(cw []byte, row, col int) bool {
	pos := row*e.grid + col
	if pos >= e.code.CodeBits() {
		return false
	}
	return ecc.Bit(cw, pos)
}
