package stacks

import "testing"

func TestEventNamesRoundTrip(t *testing.T) {
	for e := Event(0); e < NumEvents; e++ {
		got, err := ParseEvent(e.String())
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", e.String(), err)
		}
		if got != e {
			t.Fatalf("round trip %s -> %s", e, got)
		}
	}
}

func TestParseEventUnknown(t *testing.T) {
	if _, err := ParseEvent("NoSuchEvent"); err == nil {
		t.Fatal("unknown event must error")
	}
}

func TestEventValidity(t *testing.T) {
	if NumEvents.Valid() {
		t.Fatal("NumEvents is not a valid event")
	}
	if !Base.Valid() || !FpDiv.Valid() {
		t.Fatal("real events must be valid")
	}
	if Base.Optimizable() {
		t.Fatal("Base is not a latency knob")
	}
	if !MemD.Optimizable() {
		t.Fatal("MemD is a latency knob")
	}
	if Event(200).String() == "" {
		t.Fatal("out-of-range events still render")
	}
}

func TestEventCountFitsSupportMask(t *testing.T) {
	if NumEvents >= 64 {
		t.Fatalf("NumEvents = %d breaks the uint64 support mask", NumEvents)
	}
}
