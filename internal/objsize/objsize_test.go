package objsize

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNilMeasuresZero(t *testing.T) {
	for _, p := range []Policy{Shallow, OneLevel, TwoLevel, Transitive} {
		if got := New(p).Of(nil); got != 0 {
			t.Fatalf("policy %v: Of(nil) = %d", p, got)
		}
	}
}

func TestScalarSizes(t *testing.T) {
	s := New(Shallow)
	if got := s.Of(int64(1)); got != 8 {
		t.Fatalf("int64 = %d", got)
	}
	if got := s.Of(byte(1)); got != 1 {
		t.Fatalf("byte = %d", got)
	}
	if got := s.Of(3.14); got != 8 {
		t.Fatalf("float64 = %d", got)
	}
}

func TestStringPolicies(t *testing.T) {
	str := "hello, world" // 12 bytes payload
	header := int64(unsafe.Sizeof(""))
	if got := New(Shallow).Of(str); got != header {
		t.Fatalf("shallow string = %d, want %d", got, header)
	}
	if got := New(OneLevel).Of(str); got != header+12 {
		t.Fatalf("one-level string = %d, want %d", got, header+12)
	}
}

func TestByteSlicePolicies(t *testing.T) {
	buf := make([]byte, 1000)
	header := int64(unsafe.Sizeof([]byte(nil)))
	if got := New(Shallow).Of(buf); got != header {
		t.Fatalf("shallow = %d, want header %d", got, header)
	}
	if got := New(OneLevel).Of(buf); got != header+1000 {
		t.Fatalf("one-level = %d, want %d", got, header+1000)
	}
}

func TestSliceCapacityCounted(t *testing.T) {
	buf := make([]byte, 10, 1000)
	header := int64(unsafe.Sizeof([]byte(nil)))
	if got := New(OneLevel).Of(buf); got != header+1000 {
		t.Fatalf("capacity not charged: %d, want %d", got, header+1000)
	}
}

func TestNestedSliceDepth(t *testing.T) {
	// [][]byte: outer backing array at level 1 holds inner headers;
	// inner payloads live at level 2.
	chunks := [][]byte{make([]byte, 100), make([]byte, 100)}
	hdr := int64(unsafe.Sizeof([]byte(nil)))
	one := New(OneLevel).Of(chunks)
	wantOne := hdr + 2*hdr // outer header + backing array of two headers
	if one != wantOne {
		t.Fatalf("one-level nested = %d, want %d (payloads excluded)", one, wantOne)
	}
	two := New(TwoLevel).Of(chunks)
	if two != wantOne+200 {
		t.Fatalf("two-level nested = %d, want %d", two, wantOne+200)
	}
}

type leaky struct {
	id   int64
	leak []byte
}

func TestStructWithLeakBuffer(t *testing.T) {
	// The fault injector retains leaks as a flat []byte precisely so the
	// paper's one-level policy sees them. This is that contract.
	l := &leaky{id: 7, leak: make([]byte, 100*1024)}
	got := New(OneLevel).Of(l)
	if got < 100*1024 {
		t.Fatalf("one-level leak measurement = %d, want >= 100KiB", got)
	}
	if delta := got - 100*1024; delta > 256 {
		t.Fatalf("overhead beyond payload = %d bytes, suspicious", delta)
	}
}

func TestGrowthIsMonotone(t *testing.T) {
	// Retained size charges slice capacity (the backing array really is
	// retained), so growth is stepwise: non-decreasing every step and
	// strictly larger over the whole run.
	l := &leaky{}
	s := New(Transitive)
	initial := s.Of(l)
	prev := initial
	for i := 0; i < 10; i++ {
		l.leak = append(l.leak, make([]byte, 10*1024)...)
		cur := s.Of(l)
		if cur < prev {
			t.Fatalf("size shrank after leak: %d -> %d", prev, cur)
		}
		prev = cur
	}
	if prev < initial+100*1024 {
		t.Fatalf("size grew %d bytes over 100KiB of leaks", prev-initial)
	}
}

type node struct {
	payload [64]byte
	next    *node
}

func TestCycleSafe(t *testing.T) {
	a, b := &node{}, &node{}
	a.next, b.next = b, a
	got := New(Transitive).Of(a)
	nodeSz := int64(unsafe.Sizeof(node{}))
	ptr := int64(unsafe.Sizeof(uintptr(0)))
	want := ptr + 2*nodeSz // the interface holds *node (counted as pointer) -> a -> b, cycle stops
	_ = want
	if got < 2*nodeSz || got > 2*nodeSz+2*ptr {
		t.Fatalf("cyclic size = %d, want about %d", got, 2*nodeSz)
	}
}

func TestSharedBackingCountedOnce(t *testing.T) {
	buf := make([]byte, 1024)
	type holder struct{ a, b []byte }
	h := holder{a: buf, b: buf}
	got := New(Transitive).Of(h)
	hdr := int64(unsafe.Sizeof([]byte(nil)))
	want := 2*hdr + 1024
	if got != want {
		t.Fatalf("shared backing = %d, want %d (counted once)", got, want)
	}
}

func TestMapMeasurement(t *testing.T) {
	m := map[int64]int64{1: 1, 2: 2, 3: 3}
	got := New(OneLevel).Of(m)
	// map header (pointer-sized) + 3*(overhead + 8 + 8)
	min := int64(3 * (mapEntryOverhead + 16))
	if got < min {
		t.Fatalf("map size = %d, want >= %d", got, min)
	}
	if got := New(Shallow).Of(m); got != int64(unsafe.Sizeof(uintptr(0))) {
		t.Fatalf("shallow map = %d", got)
	}
}

func TestInterfaceField(t *testing.T) {
	type box struct{ v any }
	b := box{v: [256]byte{}}
	got := New(OneLevel).Of(b)
	if got < 256 {
		t.Fatalf("interface payload not counted: %d", got)
	}
}

func TestNilPointerAndSlice(t *testing.T) {
	type s struct {
		p *int64
		b []byte
		m map[int]int
	}
	v := s{}
	got := New(Transitive).Of(v)
	if want := int64(unsafe.Sizeof(v)); got != want {
		t.Fatalf("all-nil struct = %d, want %d", got, want)
	}
}

func TestPolicyString(t *testing.T) {
	cases := map[Policy]string{
		Shallow: "shallow", OneLevel: "one-level",
		TwoLevel: "two-level", Transitive: "transitive", Policy(99): "unknown",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Fatalf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

func TestDefaultOfIsTransitive(t *testing.T) {
	chunks := [][]byte{make([]byte, 100)}
	if Of(chunks) <= New(OneLevel).Of(chunks) {
		t.Fatal("package-level Of should follow deeper than one level")
	}
}

func TestTransitiveAtLeastOneLevel(t *testing.T) {
	// Property: deeper policies never report less than shallower ones.
	f := func(payload []byte, n uint8) bool {
		type wrap struct {
			bufs [][]byte
			m    map[uint8][]byte
		}
		w := wrap{m: map[uint8][]byte{n: payload}}
		for i := 0; i < int(n%8); i++ {
			w.bufs = append(w.bufs, payload)
		}
		sh := New(Shallow).Of(w)
		one := New(OneLevel).Of(w)
		two := New(TwoLevel).Of(w)
		tr := New(Transitive).Of(w)
		return sh <= one && one <= two && two <= tr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArrayElementsInline(t *testing.T) {
	var a [4][]byte
	for i := range a {
		a[i] = make([]byte, 10)
	}
	got := New(OneLevel).Of(a)
	hdr := int64(unsafe.Sizeof([]byte(nil)))
	want := 4*hdr + 40 // array is inline; payloads are one hop away
	if got != want {
		t.Fatalf("array = %d, want %d", got, want)
	}
}

// freshTypes counts the type pairs TestConcurrentIndirectionsOfEnclosingType
// builds, so each run (-count, repeated processes) gets types no earlier
// measurement has cached.
var freshTypes atomic.Int64

// TestConcurrentIndirectionsOfEnclosingType measures an enclosing type on
// one goroutine while its inner type is still being classified on
// another. The inner type holds a []byte after many pointer-free fields,
// so its answer is true but takes a while to compute; a cache that
// exposed an in-progress answer would let the outer type be cached as
// pointer-free for good, and every later measurement of it would read
// its shallow size.
func TestConcurrentIndirectionsOfEnclosingType(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2 to overlap the two classifications")
	}
	salt := freshTypes.Add(1)
	fields := make([]reflect.StructField, 0, 65)
	for i := 0; i < 64; i++ {
		fields = append(fields, reflect.StructField{
			Name: fmt.Sprintf("F%d_%d", salt, i), Type: reflect.TypeOf(int64(0)),
		})
	}
	fields = append(fields, reflect.StructField{Name: "Buf", Type: reflect.TypeOf([]byte(nil))})
	inner := reflect.StructOf(fields)
	outer := reflect.StructOf([]reflect.StructField{
		{Name: "N", Type: reflect.TypeOf(int64(0))},
		{Name: "In", Type: inner},
	})

	var innerRes, outerRes bool
	var spinning atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		spinning.Store(true)
		for {
			if _, ok := indirCache.Load(inner); ok {
				break
			}
		}
		outerRes = hasIndirections(outer)
	}()
	// Start classifying inner only once the watcher is running on the
	// other P, so the two overlap instead of running back to back.
	for !spinning.Load() {
		runtime.Gosched()
	}
	go func() {
		defer wg.Done()
		innerRes = hasIndirections(inner)
	}()
	wg.Wait()
	if !innerRes || !outerRes {
		t.Fatalf("hasIndirections: inner = %v, outer = %v, want both true", innerRes, outerRes)
	}
}

func BenchmarkTransitiveSize(b *testing.B) {
	l := &leaky{leak: make([]byte, 1<<20)}
	s := New(Transitive)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Of(l)
	}
}
