package congest

import (
	"testing"
	"testing/quick"

	"github.com/unifdist/unifdist/internal/graph"
	"github.com/unifdist/unifdist/internal/rng"
)

func TestAggregateOps(t *testing.T) {
	g := graph.NewGrid(5, 8)
	values := make([]uint64, g.N())
	sum := uint64(0)
	for i := range values {
		values[i] = uint64(3*i + 1)
		sum += values[i]
	}
	tests := []struct {
		op   AggregateOp
		want uint64
	}{
		{op: AggSum, want: sum},
		{op: AggMin, want: 1},
		{op: AggMax, want: uint64(3*(g.N()-1) + 1)},
	}
	for _, tt := range tests {
		t.Run(tt.op.String(), func(t *testing.T) {
			res, err := Aggregate(g, values, tt.op)
			if err != nil {
				t.Fatal(err)
			}
			if res.Value != tt.want {
				t.Fatalf("%s = %d, want %d", tt.op, res.Value, tt.want)
			}
			if res.Root != g.N()-1 {
				t.Fatalf("root %d, want max ID", res.Root)
			}
		})
	}
}

func TestAggregateRoundsLinearInDiameter(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.NewLine(120),
		graph.NewRing(80),
		graph.NewStar(100),
		graph.NewRandomConnected(150, 0.04, 5),
	} {
		values := make([]uint64, g.N())
		for i := range values {
			values[i] = uint64(i)
		}
		res, err := Aggregate(g, values, AggSum)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		d := g.Diameter()
		if res.Stats.Rounds > 8*d+20 {
			t.Errorf("%s: %d rounds > 8D+20 (D=%d)", g.Name(), res.Stats.Rounds, d)
		}
	}
}

func TestAggregatePropertyRandomGraphs(t *testing.T) {
	f := func(seed uint64, kRaw uint8, raw []uint8) bool {
		k := int(kRaw%30) + 1
		g := graph.NewRandomConnected(k, 0.1, seed)
		values := make([]uint64, k)
		var sum, max uint64
		min := ^uint64(0)
		r := rng.New(seed ^ 99)
		for i := range values {
			values[i] = r.Uint64() % 1000
			sum += values[i]
			if values[i] < min {
				min = values[i]
			}
			if values[i] > max {
				max = values[i]
			}
		}
		_ = raw
		s, err := Aggregate(g, values, AggSum)
		if err != nil || s.Value != sum {
			return false
		}
		mn, err := Aggregate(g, values, AggMin)
		if err != nil || mn.Value != min {
			return false
		}
		mx, err := Aggregate(g, values, AggMax)
		return err == nil && mx.Value == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateValidation(t *testing.T) {
	g := graph.NewLine(3)
	if _, err := Aggregate(g, []uint64{1}, AggSum); err == nil {
		t.Error("value/node mismatch accepted")
	}
	if _, err := Aggregate(g, []uint64{1, 2, 3}, AggregateOp(99)); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestAggregateSingleNode(t *testing.T) {
	g := graph.New(1, "single")
	res, err := Aggregate(g, []uint64{42}, AggMax)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 42 || res.Root != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestAggregateOpString(t *testing.T) {
	if AggSum.String() != "sum" || AggMin.String() != "min" || AggMax.String() != "max" {
		t.Error("op strings wrong")
	}
	if AggregateOp(9).String() != "AggregateOp(9)" {
		t.Error("unknown op string wrong")
	}
}
