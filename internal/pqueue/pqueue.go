// Package pqueue provides a generic binary min-heap.
//
// The label algorithms are heap-heavy: OSScaling keeps one global label
// queue and BucketBound keeps one queue per bucket. Both share this
// implementation rather than re-deriving container/heap boilerplate with
// interface boxing. The heap keeps items unboxed, but its ordering is the
// less func value supplied at construction, so every comparison is an
// indirect call that the compiler cannot inline. The sweep kernel of
// internal/apsp, whose comparisons dominate its run time, keeps its own
// 4-ary heap with the comparison inlined instead.
package pqueue

// Heap is a binary min-heap ordered by the less function supplied at
// construction. The zero value is not usable; call New.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// New returns an empty heap ordered by less.
func New[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// NewWithCapacity returns an empty heap with pre-allocated space for n items.
func NewWithCapacity[T any](n int, less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{items: make([]T, 0, n), less: less}
}

// Len returns the number of items in the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Empty reports whether the heap has no items.
func (h *Heap[T]) Empty() bool { return len(h.items) == 0 }

// Push adds an item to the heap.
func (h *Heap[T]) Push(v T) {
	h.items = append(h.items, v)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum item. It panics on an empty heap;
// callers guard with Empty or Len.
func (h *Heap[T]) Pop() T {
	n := len(h.items)
	top := h.items[0]
	h.items[0] = h.items[n-1]
	var zero T
	h.items[n-1] = zero // release references for the garbage collector
	h.items = h.items[:n-1]
	if len(h.items) > 0 {
		h.down(0)
	}
	return top
}

// Peek returns the minimum item without removing it. It panics on an empty
// heap.
func (h *Heap[T]) Peek() T { return h.items[0] }

// Reset discards all items while keeping the allocated space.
func (h *Heap[T]) Reset() {
	var zero T
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(h.items[right], h.items[left]) {
			smallest = right
		}
		if !h.less(h.items[smallest], h.items[i]) {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
