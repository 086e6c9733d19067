package mem

// Hierarchy is the two-level hierarchy of the target machine: split L1
// instruction/data caches over a shared, inclusive-on-fill L2, backed by
// main memory. Evictions from L1 are clean drops (presence-only model); L2
// evictions do not back-invalidate the L1s, since the model only needs
// serving-level outcomes, not coherence.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	ITLBs, DTLBs *TLB

	// Serving-level counters, indexed by Level, split by access side.
	IServed [NumLevels]uint64
	DServed [NumLevels]uint64
}

// HierarchyGeometry collects the structure-domain cache parameters.
type HierarchyGeometry struct {
	LineSize                 int
	L1ISets, L1IWays         int
	L1DSets, L1DWays         int
	L2Sets, L2Ways           int
	ITLBEntries, DTLBEntries int
	PageSize                 int
}

// NewHierarchy builds the hierarchy for the given geometry.
func NewHierarchy(g HierarchyGeometry) *Hierarchy {
	return &Hierarchy{
		L1I:   NewCache(g.L1ISets, g.L1IWays, g.LineSize),
		L1D:   NewCache(g.L1DSets, g.L1DWays, g.LineSize),
		L2:    NewCache(g.L2Sets, g.L2Ways, g.LineSize),
		ITLBs: NewTLB(g.ITLBEntries, g.PageSize),
		DTLBs: NewTLB(g.DTLBEntries, g.PageSize),
	}
}

// AccessI performs an instruction fetch access and returns the serving
// level, filling the caches along the way.
func (h *Hierarchy) AccessI(addr uint64) Level {
	lvl := h.access(h.L1I, addr)
	h.IServed[lvl]++
	return lvl
}

// AccessD performs a data access (load or store, write-allocate) and
// returns the serving level, filling the caches along the way.
func (h *Hierarchy) AccessD(addr uint64) Level {
	lvl := h.access(h.L1D, addr)
	h.DServed[lvl]++
	return lvl
}

func (h *Hierarchy) access(l1 *Cache, addr uint64) Level {
	if l1.Lookup(addr) {
		return LvlL1
	}
	if h.L2.Lookup(addr) {
		l1.Insert(addr)
		return LvlL2
	}
	h.L2.Insert(addr)
	l1.Insert(addr)
	return LvlMem
}

// TranslateI accesses the instruction TLB and reports a hit.
func (h *Hierarchy) TranslateI(addr uint64) bool { return h.ITLBs.Access(addr) }

// TranslateD accesses the data TLB and reports a hit.
func (h *Hierarchy) TranslateD(addr uint64) bool { return h.DTLBs.Access(addr) }
