package fetch

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/pht"
	"repro/internal/trace"
)

// nlsUnderTest returns an NLS-table engine plus its predictor, for driving
// the TargetPredictor protocol directly in scripted scenarios.
func nlsUnderTest() (*Frontend, *nlsPredictor[tableStore]) {
	e := NewNLSTableEngine(smallGeom(), 256, pht.NewGShare(512, 0), 8)
	return e, e.bpu.tp.(*nlsPredictor[tableStore])
}

// TestWrongPathFallThrough: with no NLS entry (or a not-taken direction
// prediction) the hardware fetches sequentially, so the wrong path is the
// fall-through address.
func TestWrongPathFallThrough(t *testing.T) {
	_, p := nlsUnderTest()
	rec := trace.Record{PC: 0x1000, Kind: isa.CondBranch, Taken: true, Target: 0x2000}
	out := p.Lookup(rec, 0, 0, false)
	if out.Correct {
		t.Fatal("invalid entry predicted a taken branch correctly")
	}
	addr, ok := p.WrongPath(rec)
	if !ok || addr != rec.PC.Next() {
		t.Errorf("fall-through wrong path = %#x, %v; want %#x, true", addr, ok, rec.PC.Next())
	}
}

// TestWrongPathRASTop: a return-typed entry selects the return stack, so
// the wrong path is whatever address its top holds.
func TestWrongPathRASTop(t *testing.T) {
	e, p := nlsUnderTest()
	rec := trace.Record{PC: 0x1000, Kind: isa.Return, Taken: true, Target: 0x2000}
	p.store.update(rec.PC, isa.Return, true, rec.Target, 0, 0, 0)
	e.rstack.Push(0x3000)
	out := p.Lookup(rec, 0, 0, false)
	if out.Correct {
		t.Fatal("stale RAS top counted as correct")
	}
	addr, ok := p.WrongPath(rec)
	if !ok || addr != 0x3000 {
		t.Errorf("RAS wrong path = %#x, %v; want 0x3000, true", addr, ok)
	}
}

// TestWrongPathRASEmpty: with an empty return stack the RAS mechanism has
// no address to supply, and fetch falls through sequentially.
func TestWrongPathRASEmpty(t *testing.T) {
	_, p := nlsUnderTest()
	rec := trace.Record{PC: 0x1000, Kind: isa.Return, Taken: true, Target: 0x2000}
	p.store.update(rec.PC, isa.Return, true, rec.Target, 0, 0, 0)
	if out := p.Lookup(rec, 0, 0, false); out.Correct {
		t.Fatal("empty RAS counted as correct")
	}
	addr, ok := p.WrongPath(rec)
	if !ok || addr != rec.PC.Next() {
		t.Errorf("empty-RAS wrong path = %#x, %v; want %#x, true", addr, ok, rec.PC.Next())
	}
}

// TestWrongPathResidentPointer: a stale pointer fetches whatever line now
// sits in the predicted cache slot — here, the slot still holds the old
// target while the branch has moved on.
func TestWrongPathResidentPointer(t *testing.T) {
	e, p := nlsUnderTest()
	oldTarget := isa.Addr(0x2000)
	_, way := e.icache.Access(oldTarget)
	rec := trace.Record{PC: 0x1000, Kind: isa.UncondBranch, Taken: true, Target: 0x2800}
	p.store.update(rec.PC, isa.UncondBranch, true, oldTarget, way, 0, 0)
	out := p.Lookup(rec, 0, 0, true)
	if out.Correct || !out.Followed {
		t.Fatalf("stale pointer outcome = %+v; want followed and wrong", out)
	}
	addr, ok := p.WrongPath(rec)
	if !ok || addr != oldTarget {
		t.Errorf("pointer wrong path = %#x, %v; want %#x, true", addr, ok, oldTarget)
	}
}

// TestWrongPathEmptySlot: a pointer into a cache slot that holds no line
// fetches nothing — WrongPath reports no address.
func TestWrongPathEmptySlot(t *testing.T) {
	_, p := nlsUnderTest()
	rec := trace.Record{PC: 0x1000, Kind: isa.UncondBranch, Taken: true, Target: 0x2000}
	p.store.update(rec.PC, isa.UncondBranch, true, rec.Target, 0, 0, 0) // cache never touched
	if out := p.Lookup(rec, 0, 0, true); out.Correct {
		t.Fatal("pointer into an empty cache counted as correct")
	}
	if addr, ok := p.WrongPath(rec); ok {
		t.Errorf("empty-slot wrong path = %#x, true; want none", addr)
	}
}

// TestPolluteMispredictDoubleTouch: a misfetch's one-cycle shadow touches
// the first wrong-path line only; a mispredict's deeper shadow also streams
// the sequential successor line.
func TestPolluteMispredictDoubleTouch(t *testing.T) {
	e, _ := nlsUnderTest()
	line := isa.Addr(e.icache.Geometry().LineBytes())

	before := e.icache.Accesses()
	e.pollute(0x2000, false)
	if got := e.icache.Accesses() - before; got != 1 {
		t.Errorf("misfetch pollute touched %d lines; want 1", got)
	}
	if _, resident := e.icache.Contains(0x2000); !resident {
		t.Error("misfetch pollute did not fetch the wrong-path line")
	}
	if _, resident := e.icache.Contains(0x2000 + line); resident {
		t.Error("misfetch pollute streamed past the first line")
	}

	before = e.icache.Accesses()
	e.pollute(0x4000, true)
	if got := e.icache.Accesses() - before; got != 2 {
		t.Errorf("mispredict pollute touched %d lines; want 2", got)
	}
	for _, a := range []isa.Addr{0x4000, 0x4000 + line} {
		if _, resident := e.icache.Contains(a); !resident {
			t.Errorf("mispredict pollute left %#x non-resident", a)
		}
	}
}
