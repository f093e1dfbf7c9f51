// Package hotpath is the allocfree analyzer's test bed: annotated
// functions with each allocation class, plus clean annotated and dirty
// unannotated controls.
package hotpath

type Item int32

type Index struct {
	counts []int
	buf    []Item
}

// ok: an annotated query that only reads and writes preallocated state.
//
//pcpda:alloc-free
func (ix *Index) Ceiling(excl int) int {
	best := -1
	for r, c := range ix.counts {
		if r != excl && c > 0 && r > best {
			best = r
		}
	}
	return best
}

// ok: calling a func-typed parameter is not boxing.
//
//pcpda:alloc-free
func (ix *Index) Each(fn func(x Item) bool) {
	for _, x := range ix.buf {
		if !fn(x) {
			return
		}
	}
}

//pcpda:alloc-free
func (ix *Index) Grow(x Item) {
	ix.buf = append(ix.buf, x) // want `calls append`
}

//pcpda:alloc-free
func (ix *Index) Fresh(n int) {
	ix.counts = make([]int, n) // want `calls make`
	p := new(Index)            // want `calls new`
	_ = p
}

//pcpda:alloc-free
func (ix *Index) Literal() []int {
	return []int{1, 2, 3} // want `composite literal`
}

//pcpda:alloc-free
func (ix *Index) Closure(limit int) func() bool {
	return func() bool { // want `closure captures ix, limit`
		return len(ix.buf) < limit
	}
}

//pcpda:alloc-free
func (ix *Index) Box(x Item) any {
	var out any = x // want `boxes hotpath.Item into interface any`
	return out
}

//pcpda:alloc-free
func (ix *Index) BoxArg(x Item) {
	sink(x) // want `boxes hotpath.Item into interface any`
}

// ok: a pointer is the interface's data word; passing it boxes nothing.
//
//pcpda:alloc-free
func (ix *Index) PassSelf() {
	sink(ix)
}

//pcpda:alloc-free
func (ix *Index) Strings(a, b string) string {
	return a + b // want `concatenates strings`
}

//pcpda:alloc-free
func (ix *Index) Convert(b []byte) string {
	return string(b) // want `converts \[\]byte to string`
}

// ok: unannotated functions may allocate freely.
func (ix *Index) Rebuild(n int) {
	ix.counts = make([]int, n)
	ix.buf = append(ix.buf, Item(n))
}

func sink(v any) { _ = v }
