package mobile_test

import (
	"testing"
	"unsafe"

	"mobickpt/internal/mobile"
)

// TestMessageSize: a Message fits the 64-byte size class, so each message
// in flight costs 64 B (72 B took the 80-byte class).
func TestMessageSize(t *testing.T) {
	if size := unsafe.Sizeof(mobile.Message{}); size != 64 {
		t.Fatalf("a Message takes %d B, want 64", size)
	}
}
