//go:build race

// Package race reports whether the race detector is compiled in. Alloc
// regression tests skip under -race: race instrumentation allocates on
// paths that are allocation-free in a normal build.
package race

// Enabled is true in builds with -race.
const Enabled = true
