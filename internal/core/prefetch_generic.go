//go:build !amd64 || purego

package core

// prefetch is a hint; without the amd64 instruction it is nothing.
func prefetch(*uint64) {}
