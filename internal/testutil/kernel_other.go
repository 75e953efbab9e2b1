//go:build !linux

package testutil

// KernelCounts is unavailable off Linux: ok is false, and the budgets
// built on it skip.
func KernelCounts() (Counts, bool) { return Counts{}, false }
