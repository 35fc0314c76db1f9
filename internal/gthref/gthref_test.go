package gthref

import (
	"math/big"
	"testing"
)

// TestTwoStateClosedForm: a two-state chain with rates λ and μ has
// π = (μ, λ)/(λ+μ), here to every one of 256 bits. Parallel edges add.
func TestTwoStateClosedForm(t *testing.T) {
	t.Parallel()
	const prec = 256
	pi := Stationary(2, []Transition{{0, 1, 1}, {0, 1, 2}, {1, 0, 0.5}}, prec)
	for i, want := range []*big.Float{
		new(big.Float).SetPrec(prec).Quo(big.NewFloat(0.5), big.NewFloat(3.5)),
		new(big.Float).SetPrec(prec).Quo(big.NewFloat(3), big.NewFloat(3.5)),
	} {
		if pi[i].Cmp(want) != 0 {
			t.Errorf("π[%d] = %s, want %s", i, pi[i].Text('g', 40), want.Text('g', 40))
		}
	}
}
