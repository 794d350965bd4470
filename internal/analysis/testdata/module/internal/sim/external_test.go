package sim_test

import (
	"testing"
	"time"
)

// An external test package is scoped as the package it tests: detlint
// must flag this wall-clock read too.
func TestStamp(t *testing.T) {
	_ = time.Now()
}
