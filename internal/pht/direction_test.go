package pht

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// TestAdapterExactness: the bit-identity contract the stateless predictors
// keep now that they implement the protocol natively. Driven with the
// frontend's full call mix of Predict, Query, Resolve and WrongPath, each
// must leave exactly the state a plain Predict/Resolve sequence (the
// pre-protocol Predict/Update) produces, prediction for prediction, and
// issue only zero tokens.
func TestAdapterExactness(t *testing.T) {
	mk := []func() Predictor{
		func() Predictor { return NewGShare(512, 6) },
		func() Predictor { return NewGAs(256) },
		func() Predictor { return NewBimodal(512) },
		func() Predictor { return NewOneBit(512) },
		func() Predictor { return Static{Taken: true} },
		func() Predictor { return Static{} },
	}
	for _, f := range mk {
		ref, proto := f(), f()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 5000; i++ {
			pc := isa.Addr(0x1000 + uint32(rng.Intn(300))*4)
			switch rng.Intn(4) {
			case 0: // conditional break: predict then resolve
				taken := rng.Intn(2) == 0
				want, rtok := ref.Predict(pc)
				ref.Resolve(pc, rtok, taken)
				got, tok := proto.Predict(pc)
				proto.Resolve(pc, tok, taken)
				if got != want || tok != 0 {
					t.Fatalf("%s: step %d: predicted %v (token %d), reference %v", ref.Name(), i, got, tok, want)
				}
			case 1: // non-cond break: direction read only
				want, _ := ref.Predict(pc)
				if got := proto.Query(pc); got != want {
					t.Fatalf("%s: step %d: Query %v, reference Predict %v", ref.Name(), i, got, want)
				}
			case 2: // wrong-path report: invisible to stateless predictors
				proto.WrongPath(pc)
			case 3: // pure read on both sides keeps states comparable
				if ref.Query(pc) != proto.Query(pc) {
					t.Fatalf("%s: step %d: states diverged", ref.Name(), i)
				}
			}
		}
		if ref.SizeBits() != proto.SizeBits() || ref.Name() != proto.Name() {
			t.Fatalf("protocol calls changed identity: %s/%d vs %s/%d",
				ref.Name(), ref.SizeBits(), proto.Name(), proto.SizeBits())
		}
	}
}

// TestAsDirectionPassThrough: with one interface every predictor is used
// as it is built. Static{} is the inert never-taken placeholder that
// coupled-direction architectures carry, and gshare's state-sharing hooks
// are reachable on the Predictor value itself, with no wrapper to unwrap.
func TestAsDirectionPassThrough(t *testing.T) {
	type keyed interface {
		StateKey() (string, bool)
		AdoptState(Predictor) bool
	}
	var g Predictor = NewGShare(512, 0)
	if _, ok := g.(keyed); !ok {
		t.Fatal("gshare's StateKey/AdoptState not reachable on the Predictor value")
	}
	var tg Predictor = MustTAGE(smallTAGE())
	if _, ok := tg.(keyed); ok {
		t.Fatal("TAGE unexpectedly offers gshare's state-sharing hooks")
	}
	var inert Predictor = Static{}
	if taken, tok := inert.Predict(0x1000); taken || tok != 0 {
		t.Fatal("Static{} is not an inert predictor")
	}
	inert.Resolve(0x1000, 0, true)
	inert.WrongPath(0x1000)
	if inert.Query(0x1000) {
		t.Fatal("inert predictor learned")
	}
}
