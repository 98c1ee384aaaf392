package main

import (
	"math"
	"testing"
)

func TestCheckBudgets(t *testing.T) {
	for _, tc := range []struct {
		budget int
		refit  float64
		ok     bool
	}{
		{1, 0, true}, {100, 0, true}, {20, 0.5, true}, {20, 0.999, true},
		{0, 0, false}, {-3, 0, false},
		{20, 1, false}, {20, 5, false}, {20, -0.1, false},
		{20, math.NaN(), false}, {20, math.Inf(1), false},
	} {
		if err := checkBudgets(tc.budget, tc.refit); (err == nil) != tc.ok {
			t.Errorf("checkBudgets(%d, %v) = %v, want ok %v", tc.budget, tc.refit, err, tc.ok)
		}
	}
}
