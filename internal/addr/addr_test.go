package addr

import (
	"testing"
	"testing/quick"
)

func TestPageConstants(t *testing.T) {
	if PageSize4K != 4096 {
		t.Fatalf("PageSize4K = %d, want 4096", PageSize4K)
	}
	if PageSize2M != 2<<20 {
		t.Fatalf("PageSize2M = %d, want 2MiB", PageSize2M)
	}
	if PagesPerHuge != 512 {
		t.Fatalf("PagesPerHuge = %d, want 512", PagesPerHuge)
	}
}

func TestPageNumAndOffset(t *testing.T) {
	v := Virt(0x12345678)
	if got, want := v.PageNum4K(), uint64(0x12345); got != want {
		t.Errorf("PageNum4K = %#x, want %#x", got, want)
	}
	if got, want := v.Offset4K(), uint64(0x678); got != want {
		t.Errorf("Offset4K = %#x, want %#x", got, want)
	}
	if got, want := v.PageNum2M(), uint64(0x12345678>>21); got != want {
		t.Errorf("PageNum2M = %#x, want %#x", got, want)
	}
}

func TestBaseAddresses(t *testing.T) {
	v := Virt(0x40001234)
	if got := v.Base4K(); got != Virt(0x40001000) {
		t.Errorf("Base4K = %s", got)
	}
	if got := v.Base2M(); got != Virt(0x40000000) {
		t.Errorf("Base2M = %s", got)
	}
}

func TestSubpageIndex(t *testing.T) {
	base := Virt2M(7)
	for _, i := range []int{0, 1, 255, 511} {
		v := base + Virt(uint64(i)*PageSize4K+13)
		if got := v.SubpageIndex(); got != i {
			t.Errorf("SubpageIndex(%s) = %d, want %d", v, got, i)
		}
	}
}

func TestIndexLevels(t *testing.T) {
	// Construct an address with distinct known indices at each level.
	// idx4=1, idx3=2, idx2=3, idx1=4, offset=5.
	v := Virt(1<<39 | 2<<30 | 3<<21 | 4<<12 | 5)
	for level, want := range map[int]int{4: 1, 3: 2, 2: 3, 1: 4} {
		if got := Index(v, level); got != want {
			t.Errorf("Index(level %d) = %d, want %d", level, got, want)
		}
	}
}

func TestIndexPanicsOnBadLevel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Index(0) did not panic")
		}
	}()
	Index(0, 0)
}

func TestRangeBasics(t *testing.T) {
	r := NewRange(Virt(0x1000), 0x3000)
	if r.Size() != 0x3000 {
		t.Errorf("Size = %#x", r.Size())
	}
	if !r.Contains(0x1000) || !r.Contains(0x3fff) || r.Contains(0x4000) {
		t.Error("Contains boundary behaviour wrong")
	}
	if r.Pages4K() != 3 {
		t.Errorf("Pages4K = %d, want 3", r.Pages4K())
	}
}

func TestRangePartialPages(t *testing.T) {
	// A one-byte range straddling nothing still touches one page.
	r := NewRange(Virt(0x1fff), 2) // bytes 0x1fff and 0x2000: two pages
	if r.Pages4K() != 2 {
		t.Errorf("straddling Pages4K = %d, want 2", r.Pages4K())
	}
	if NewRange(0, 0).Pages4K() != 0 {
		t.Error("empty range should touch 0 pages")
	}
}

func TestRangeOverlaps(t *testing.T) {
	a := NewRange(0x1000, 0x1000)
	b := NewRange(0x1800, 0x1000)
	c := NewRange(0x2000, 0x1000)
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a and b should overlap")
	}
	if a.Overlaps(c) {
		t.Error("adjacent ranges should not overlap")
	}
}

func TestEach2M(t *testing.T) {
	r := NewRange(Virt2M(3)+5, 2*PageSize2M)
	var bases []Virt
	r.Each2M(func(b Virt) { bases = append(bases, b) })
	want := []Virt{Virt2M(3), Virt2M(4), Virt2M(5)}
	if len(bases) != len(want) {
		t.Fatalf("Each2M visited %d pages, want %d", len(bases), len(want))
	}
	for i := range want {
		if bases[i] != want[i] {
			t.Errorf("bases[%d] = %s, want %s", i, bases[i], want[i])
		}
	}
}

func TestAddressDecompositionProperty(t *testing.T) {
	f := func(raw uint64) bool {
		v := Virt(raw & 0x0000ffffffffffff) // keep canonical lower-half
		ok4 := v.Base4K()+Virt(v.Offset4K()) == v
		ok2 := v.Base2M()+Virt(v.Offset2M()) == v
		nested := v.Base2M()+Virt(uint64(v.SubpageIndex())*PageSize4K) == v.Base4K()
		return ok4 && ok2 && nested
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: radix indices reconstruct the 4KB page number.
func TestRadixReconstructionProperty(t *testing.T) {
	f := func(raw uint64) bool {
		v := Virt(raw & 0x0000ffffffffffff)
		n := uint64(Index(v, 4))<<27 | uint64(Index(v, 3))<<18 |
			uint64(Index(v, 2))<<9 | uint64(Index(v, 1))
		return n == v.PageNum4K()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: round-tripping page numbers through Virt4K/Virt2M is stable.
func TestPageNumRoundTripProperty(t *testing.T) {
	f := func(n uint64) bool {
		n4 := n & 0x0000000fffffffff
		n2 := n & 0x0000000007ffffff
		return Virt4K(n4).PageNum4K() == n4 && Virt2M(n2).PageNum2M() == n2 &&
			Phys4K(n4).FrameNum4K() == n4 && Phys2M(n2).FrameNum2M() == n2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
