package sim

import "testing"

// TestFIFOWrapGrowWithdraw drives the ring buffer through wrap-around,
// growth while wrapped and withdrawal from the middle, against a plain
// slice model.
func TestFIFOWrapGrowWithdraw(t *testing.T) {
	var q fifo[int]
	var model []int
	check := func(step string) {
		t.Helper()
		if q.len() != len(model) {
			t.Fatalf("%s: len %d, model %d", step, q.len(), len(model))
		}
		for i, v := range model {
			if q.at(i) != v {
				t.Fatalf("%s: at(%d) = %d, model %v", step, i, q.at(i), model)
			}
		}
	}
	next := 0
	for round := 0; round < 50; round++ {
		for k := 0; k < 1+round%5; k++ {
			q.push(next)
			model = append(model, next)
			next++
		}
		check("push")
		if round%3 == 0 && len(model) > 2 {
			mid := model[len(model)/2]
			withdraw(&q, mid)
			model = append(model[:len(model)/2], model[len(model)/2+1:]...)
			check("withdraw")
		}
		withdraw(&q, -1) // absent: no-op
		for k := 0; k < round%4 && len(model) > 0; k++ {
			if v := q.pop(); v != model[0] {
				t.Fatalf("pop = %d, model %v", v, model)
			}
			model = model[1:]
		}
		check("pop")
	}
}
