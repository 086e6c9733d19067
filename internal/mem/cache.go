// Package mem implements the memory-system substrate of the target
// microarchitecture: set-associative LRU caches, a two-level hierarchy with
// a shared L2, and TLBs. The package is purely functional with respect to
// time — it decides which level serves an access and maintains contents;
// cycle accounting belongs to the timing simulator, which attaches the
// latency-domain cost of the serving level.
package mem

import "fmt"

// Level identifies the hierarchy level that served an access.
type Level uint8

const (
	LvlL1 Level = iota
	LvlL2
	LvlMem

	NumLevels // not a valid level
)

var levelNames = [NumLevels]string{LvlL1: "L1", LvlL2: "L2", LvlMem: "Mem"}

// String returns the level's short name.
func (l Level) String() string {
	if l < NumLevels {
		return levelNames[l]
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// Cache is a set-associative cache with true-LRU replacement over line
// addresses. It stores no data, only presence.
type Cache struct {
	sets      int
	ways      int
	lineShift uint
	// lines[set] holds up to ways line addresses ordered most- to
	// least-recently used.
	lines [][]uint64

	Hits, Misses uint64
}

// NewCache builds a cache with the given geometry. lineSize must be a power
// of two; sets and ways must be positive.
func NewCache(sets, ways, lineSize int) *Cache {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("mem: invalid cache geometry sets=%d ways=%d", sets, ways))
	}
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("mem: line size %d is not a power of two", lineSize))
	}
	shift := uint(0)
	for 1<<shift != lineSize {
		shift++
	}
	c := &Cache{sets: sets, ways: ways, lineShift: shift}
	c.lines = make([][]uint64, sets)
	for i := range c.lines {
		c.lines[i] = make([]uint64, 0, ways)
	}
	return c
}

// Line returns the line address (address with the offset bits cleared).
func (c *Cache) Line(addr uint64) uint64 { return addr >> c.lineShift }

func (c *Cache) set(line uint64) int { return int(line % uint64(c.sets)) }

// Lookup probes the cache for the line holding addr, promoting it to
// most-recently-used on a hit.
func (c *Cache) Lookup(addr uint64) bool {
	line := c.Line(addr)
	set := c.lines[c.set(line)]
	for i, l := range set {
		if l == line {
			// Promote to MRU.
			copy(set[1:i+1], set[:i])
			set[0] = line
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Insert fills the line holding addr, evicting the LRU line of its set when
// the set is full. It reports the evicted line address and whether an
// eviction happened. Inserting a line that is already present only promotes
// it.
func (c *Cache) Insert(addr uint64) (evicted uint64, ok bool) {
	line := c.Line(addr)
	idx := c.set(line)
	set := c.lines[idx]
	for i, l := range set {
		if l == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			return 0, false
		}
	}
	if len(set) < c.ways {
		set = append(set, 0)
		copy(set[1:], set[:len(set)-1])
		set[0] = line
		c.lines[idx] = set
		return 0, false
	}
	evicted = set[len(set)-1]
	copy(set[1:], set[:len(set)-1])
	set[0] = line
	return evicted, true
}

// Contains probes without touching LRU state or counters.
func (c *Cache) Contains(addr uint64) bool {
	line := c.Line(addr)
	for _, l := range c.lines[c.set(line)] {
		if l == line {
			return true
		}
	}
	return false
}

// TLB is a fully-associative LRU translation buffer over page numbers.
type TLB struct {
	entries   int
	pageShift uint
	pages     []uint64 // MRU first

	Hits, Misses uint64
}

// NewTLB builds a TLB with the given entry count and page size (a power of
// two).
func NewTLB(entries, pageSize int) *TLB {
	if entries <= 0 {
		panic(fmt.Sprintf("mem: invalid TLB size %d", entries))
	}
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("mem: page size %d is not a power of two", pageSize))
	}
	shift := uint(0)
	for 1<<shift != pageSize {
		shift++
	}
	return &TLB{entries: entries, pageShift: shift, pages: make([]uint64, 0, entries)}
}

// Access translates addr, filling the TLB on a miss, and reports whether the
// translation hit.
func (t *TLB) Access(addr uint64) bool {
	page := addr >> t.pageShift
	for i, p := range t.pages {
		if p == page {
			copy(t.pages[1:i+1], t.pages[:i])
			t.pages[0] = page
			t.Hits++
			return true
		}
	}
	t.Misses++
	if len(t.pages) < t.entries {
		t.pages = append(t.pages, 0)
	}
	copy(t.pages[1:], t.pages[:len(t.pages)-1])
	t.pages[0] = page
	return false
}
