package main

import "fmt"

// validateServeFlags checks the serving-tier flags in the descriptive style
// of probeflags.go. -read-cache sizes the store's decoded-entry LRU (per
// history type, in entries). Deep pagination reads sealed segment files
// through this cache, so it bounds the resident cost of serving history:
// too small thrashes on hot pages, and zero or negative would disable the
// only bound between a request and a disk read per entry.
func validateServeFlags(readCache int) error {
	if readCache <= 0 {
		return fmt.Errorf("-read-cache must be positive, got %d (entries of decoded history kept in memory for segment-backed reads)", readCache)
	}
	if readCache > 1<<24 {
		return fmt.Errorf("-read-cache must be at most %d, got %d (a larger cache than 16Mi entries defeats the point of paging history off disk)", 1<<24, readCache)
	}
	return nil
}
