// Package stacks defines the stall-event taxonomy and the stall-event stack,
// the central data structure of RpStacks.
//
// A stall-event stack records, for one execution path through the dependence
// graph, how many times the latency of each event kind is paid along the
// path. Because the stack stores event *counts* rather than cycles, the total
// length of the path under any latency configuration is a simple dot product
// (Stack.Total), which is what makes single-simulation design space
// exploration possible: the stack is collected once under the baseline
// configuration and re-weighted for free for every candidate configuration.
package stacks

import "fmt"

// Event identifies one kind of performance-critical stall event. Every edge
// of the dependence graph is attributed to exactly one event kind; the
// latency domain of the design space assigns a cycle cost to each kind.
type Event uint8

// The event taxonomy. Base counts raw pipeline-advance cycles (its latency is
// fixed at one cycle and is not part of the design space); all other events
// are latency-domain knobs. Instruction- and data-side cache events are
// attributed to the hierarchy level that served the access, matching the CPI
// stack components shown in the paper's Figures 5, 6 and 12.
const (
	Base Event = iota // un-optimizable pipeline advances (1 cycle per count)

	L1I  // instruction fetch served by the L1 instruction cache
	L2I  // instruction fetch served by the L2 cache
	MemI // instruction fetch served by main memory
	ITLB // instruction TLB miss penalty

	L1D  // load served by the L1 data cache
	L2D  // load served by the L2 cache
	MemD // load served by main memory
	DTLB // data TLB miss penalty

	Agu   // address generation for loads and stores (the LD unit of Table II)
	Store // store buffer write

	Branch // branch misprediction redirect and front-end refill

	IntAlu // simple integer ALU operation
	IntMul // integer multiply
	IntDiv // integer divide
	FpAdd  // floating-point add/subtract
	FpMul  // floating-point multiply
	FpDiv  // floating-point divide

	NumEvents // number of event kinds; not a valid Event
)

var eventNames = [NumEvents]string{
	Base:   "Base",
	L1I:    "L1I",
	L2I:    "L2I",
	MemI:   "MemI",
	ITLB:   "ITLB",
	L1D:    "L1D",
	L2D:    "L2D",
	MemD:   "MemD",
	DTLB:   "DTLB",
	Agu:    "Agu",
	Store:  "Store",
	Branch: "Branch",
	IntAlu: "IntAlu",
	IntMul: "IntMul",
	IntDiv: "IntDiv",
	FpAdd:  "FpAdd",
	FpMul:  "FpMul",
	FpDiv:  "FpDiv",
}

// String returns the canonical short name of the event kind.
func (e Event) String() string {
	if e < NumEvents {
		return eventNames[e]
	}
	return fmt.Sprintf("Event(%d)", uint8(e))
}

// Valid reports whether e names a real event kind.
func (e Event) Valid() bool { return e < NumEvents }

// ParseEvent resolves a canonical event name (as produced by Event.String)
// back to the event kind.
func ParseEvent(name string) (Event, error) {
	for i, n := range eventNames {
		if n == name {
			return Event(i), nil
		}
	}
	return NumEvents, fmt.Errorf("stacks: unknown event %q", name)
}

// Optimizable reports whether the event kind is a latency-domain knob the
// design space exploration may adjust. Base is the only fixed kind.
func (e Event) Optimizable() bool { return e.Valid() && e != Base }
