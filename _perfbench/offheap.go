package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeap hands out zeroed slices backed by anonymous memory mappings,
// outside the Go heap, and unmaps them all in free. serve-open keeps its
// schedule, per-request records and response bodies there, so that the
// live heap, the allocation count and the collector's pace measure the
// server rather than the load generator. The collector does not scan this
// memory: only pointer-free element types may live in it.
type offHeap struct{ maps [][]byte }

// offHeapSlice returns n zeroed T from a fresh mapping owned by h.
func offHeapSlice[T any](h *offHeap, n int) ([]T, error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	if n == 0 || size == 0 {
		return nil, nil
	}
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d bytes: %w", size, err)
	}
	h.maps = append(h.maps, mem)
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), nil
}

// free unmaps every slice h handed out; none may be used afterwards.
func (h *offHeap) free() {
	for _, m := range h.maps {
		syscall.Munmap(m) // only fails for a range that is not mapped
	}
	h.maps = nil
}
