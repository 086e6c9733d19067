package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheLRUEviction(t *testing.T) {
	// One set, two ways: classic LRU sequence.
	c := NewCache(1, 2, 64)
	a, b, d := uint64(0), uint64(64), uint64(128)
	for _, addr := range []uint64{a, b} {
		if c.Lookup(addr) {
			t.Fatal("cold lookup must miss")
		}
		c.Insert(addr)
	}
	if !c.Lookup(a) {
		t.Fatal("a must hit")
	}
	// b is now LRU; inserting d must evict b.
	ev, ok := c.Insert(d)
	if !ok || ev != c.Line(b) {
		t.Fatalf("evicted %d, want line of b (%d)", ev, c.Line(b))
	}
	if c.Contains(b) {
		t.Fatal("b must be gone")
	}
	if !c.Contains(a) || !c.Contains(d) {
		t.Fatal("a and d must remain")
	}
}

func TestCacheSetMapping(t *testing.T) {
	c := NewCache(4, 1, 64)
	// Addresses 0 and 4*64 map to the same set; 64 maps elsewhere.
	c.Insert(0)
	c.Insert(64)
	if _, evicted := c.Insert(4 * 64); !evicted {
		t.Fatal("same-set insert into a full 1-way set must evict")
	}
	if !c.Contains(64) {
		t.Fatal("other set must be untouched")
	}
}

func TestCacheSameLineInsertPromotes(t *testing.T) {
	c := NewCache(1, 2, 64)
	c.Insert(0)
	c.Insert(64)
	// Re-inserting 0 promotes it; inserting 128 must then evict 64.
	if _, ok := c.Insert(0); ok {
		t.Fatal("re-insert must not evict")
	}
	ev, ok := c.Insert(128)
	if !ok || ev != c.Line(64) {
		t.Fatalf("evicted %d, want line of 64", ev)
	}
}

func TestCacheCounters(t *testing.T) {
	c := NewCache(2, 2, 64)
	c.Lookup(0)
	c.Insert(0)
	c.Lookup(0)
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", c.Hits, c.Misses)
	}
}

func TestCachePanicsOnBadGeometry(t *testing.T) {
	for _, f := range []func(){
		func() { NewCache(0, 1, 64) },
		func() { NewCache(1, 0, 64) },
		func() { NewCache(1, 1, 48) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad geometry must panic")
				}
			}()
			f()
		}()
	}
}

// TestCacheWorkingSetProperty checks the defining property of LRU: a
// working set no larger than one set's ways, repeatedly accessed, always
// hits after the first pass.
func TestCacheWorkingSetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		ways := 1 + rng.Intn(4)
		c := NewCache(1, ways, 64)
		ws := make([]uint64, ways)
		for i := range ws {
			ws[i] = uint64(i * 64)
		}
		for _, a := range ws {
			c.Lookup(a)
			c.Insert(a)
		}
		for pass := 0; pass < 3; pass++ {
			for _, a := range ws {
				if !c.Lookup(a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(2, 4096)
	if tlb.Access(0) {
		t.Fatal("cold access must miss")
	}
	if !tlb.Access(100) {
		t.Fatal("same page must hit")
	}
	tlb.Access(4096) // second page
	tlb.Access(8192) // third page evicts page 0 (LRU)
	if tlb.Access(0) {
		t.Fatal("evicted page must miss")
	}
	if tlb.Hits != 1 || tlb.Misses != 4 {
		t.Fatalf("hits/misses = %d/%d", tlb.Hits, tlb.Misses)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := NewHierarchy(HierarchyGeometry{
		LineSize: 64,
		L1ISets:  2, L1IWays: 1,
		L1DSets: 2, L1DWays: 1,
		L2Sets: 16, L2Ways: 2,
		ITLBEntries: 4, DTLBEntries: 4, PageSize: 4096,
	})
	if lvl := h.AccessD(0); lvl != LvlMem {
		t.Fatalf("cold access served by %s, want Mem", lvl)
	}
	if lvl := h.AccessD(0); lvl != LvlL1 {
		t.Fatalf("second access served by %s, want L1", lvl)
	}
	// Evict line 0 from the 1-way L1 set, keeping it in L2.
	h.AccessD(2 * 64)
	if lvl := h.AccessD(0); lvl != LvlL2 {
		t.Fatalf("L1-evicted line served by %s, want L2", lvl)
	}
	if h.DServed[LvlL1] != 1 || h.DServed[LvlL2] != 1 || h.DServed[LvlMem] != 2 {
		t.Fatalf("DServed = %v", h.DServed)
	}
}

func TestHierarchySplitL1SharedL2(t *testing.T) {
	h := NewHierarchy(HierarchyGeometry{
		LineSize: 64,
		L1ISets:  2, L1IWays: 1,
		L1DSets: 2, L1DWays: 1,
		L2Sets: 16, L2Ways: 2,
		ITLBEntries: 4, DTLBEntries: 4, PageSize: 4096,
	})
	h.AccessI(0) // fills L2 through the I side
	if lvl := h.AccessD(0); lvl != LvlL2 {
		t.Fatalf("data access after instruction fill served by %s, want shared L2", lvl)
	}
}

func TestLevelString(t *testing.T) {
	if LvlL1.String() != "L1" || LvlMem.String() != "Mem" {
		t.Fatal("level names wrong")
	}
	if Level(9).String() == "" {
		t.Fatal("out-of-range level must render")
	}
}
