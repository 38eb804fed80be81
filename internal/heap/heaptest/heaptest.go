// Package heaptest provides test oracles for code that drives a heap.Heap
// through a collector, including one that renumbers Refs (SemiSpace).
package heaptest

import (
	"fmt"

	"jvmpower/internal/heap"
)

// Shape is a rooted object graph with the Refs taken out. Objects are
// numbered in first-reach order from the roots, breadth first with fields in
// order; each records its size and its fields as those numbers (-1 for
// Null). Two graphs have equal Shapes exactly when their roots reach the
// same structure of objects, whatever Refs the heap gave them, so a Shape
// taken before a collection must equal the one taken after it.
type Shape struct {
	Roots []int
	Sizes []uint32
	Edges [][]int
}

// ShapeOf walks the subgraph reachable from roots. It fails on a dangling
// reference: one outside the object table or naming a freed slot.
func ShapeOf(h *heap.Heap, roots []heap.Ref) (Shape, error) {
	var s Shape
	index := make(map[heap.Ref]int)
	var queue []heap.Ref
	number := func(r heap.Ref) (int, error) {
		if r == heap.Null {
			return -1, nil
		}
		if i, ok := index[r]; ok {
			return i, nil
		}
		if int(r) >= h.TableLen() {
			return 0, fmt.Errorf("dangling ref %d: the table has %d slots", r, h.TableLen())
		}
		o := h.Get(r)
		if o.Size == 0 {
			return 0, fmt.Errorf("dangling ref %d: the slot is free", r)
		}
		i := len(s.Sizes)
		index[r] = i
		s.Sizes = append(s.Sizes, o.Size)
		queue = append(queue, r)
		return i, nil
	}
	for _, r := range roots {
		i, err := number(r)
		if err != nil {
			return Shape{}, fmt.Errorf("root: %w", err)
		}
		s.Roots = append(s.Roots, i)
	}
	for k := 0; k < len(queue); k++ {
		var edges []int
		for _, c := range h.Get(queue[k]).RefsIn(h) {
			i, err := number(c)
			if err != nil {
				return Shape{}, fmt.Errorf("field of object %d: %w", k, err)
			}
			edges = append(edges, i)
		}
		s.Edges = append(s.Edges, edges)
	}
	return s, nil
}
