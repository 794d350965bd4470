// Package statestore is the data plane of the checkpointing system: the
// actual bytes. internal/storage accounts for *how much* state moves;
// this package implements the movement itself — page-based mobile-host
// state with dirty tracking, incremental delta extraction, MSS-side
// reconstruction, and checksum verification — the concrete realization
// of §2.2's incremental checkpointing technique:
//
//	"Incremental checkpointing transfers on the MSS stable storage only
//	 the information that changed since the last checkpoint. The MSS can
//	 reconstruct the checkpoint of the process by updating its last
//	 checkpoint with the information sent by the MH. If, due to a cell
//	 switch, the last checkpoint is not present in the current MSS, the
//	 latter will incur in a transfer operation to fetch the last
//	 checkpoint from another MSS."
//
// HostState is the MH side (mutating pages, producing deltas);
// StationStore is the MSS side (applying deltas, fetching bases from
// sibling stations, verifying checksums).
package statestore

import (
	"bytes"
	"fmt"
	"hash/crc32"
)

// PageSize is the granularity of dirty tracking, in bytes.
const PageSize = 256

// HostState is a mobile host's mutable memory image with per-page dirty
// tracking. The zero value is not usable; call NewHostState.
type HostState struct {
	pages [][]byte
	dirty []bool
}

// NewHostState allocates a zeroed state of the given number of pages.
func NewHostState(numPages int) *HostState {
	if numPages <= 0 {
		panic("statestore: numPages must be positive")
	}
	s := &HostState{
		pages: make([][]byte, numPages),
		dirty: make([]bool, numPages),
	}
	for i := range s.pages {
		s.pages[i] = make([]byte, PageSize)
	}
	return s
}

// DirtyPages returns how many pages changed since the last delta.
func (s *HostState) DirtyPages() int {
	n := 0
	for _, d := range s.dirty {
		if d {
			n++
		}
	}
	return n
}

// Write stores data at the given byte offset, marking the touched pages
// dirty. It returns an error if the range falls outside the state.
func (s *HostState) Write(offset int, data []byte) error {
	if offset < 0 || offset+len(data) > len(s.pages)*PageSize {
		return fmt.Errorf("statestore: write [%d,%d) out of range", offset, offset+len(data))
	}
	for len(data) > 0 {
		page := offset / PageSize
		in := offset % PageSize
		n := copy(s.pages[page][in:], data)
		s.dirty[page] = true
		data = data[n:]
		offset += n
	}
	return nil
}

// Read copies len(buf) bytes starting at offset into buf.
func (s *HostState) Read(offset int, buf []byte) error {
	if offset < 0 || offset+len(buf) > len(s.pages)*PageSize {
		return fmt.Errorf("statestore: read [%d,%d) out of range", offset, offset+len(buf))
	}
	for len(buf) > 0 {
		page := offset / PageSize
		in := offset % PageSize
		n := copy(buf, s.pages[page][in:])
		buf = buf[n:]
		offset += n
	}
	return nil
}

// Delta is the increment shipped over the wireless link: the dirty pages
// since the previous checkpoint, plus a checksum of the *full* state so
// the station can verify its reconstruction.
type Delta struct {
	Seq      int // checkpoint ordinal this delta produces
	Full     bool
	Pages    []PageUpdate
	NumPages int
	Checksum uint32
}

// PageUpdate carries one page's new content.
type PageUpdate struct {
	Index int
	Data  []byte
}

// Bytes returns the payload volume of the delta (page data only).
func (d *Delta) Bytes() int { return len(d.Pages) * PageSize }

// Checkpoint extracts the increment since the previous Checkpoint call
// and clears the dirty set. If full is true (first checkpoint, or
// resync after corruption) every page is included. seq is the ordinal
// the resulting checkpoint will have on the station. The pages' copies
// share one allocation.
func (s *HostState) Checkpoint(seq int, full bool) *Delta {
	n := len(s.pages)
	if !full {
		n = s.DirtyPages()
	}
	d := &Delta{Seq: seq, Full: full, NumPages: len(s.pages), Checksum: s.Checksum(),
		Pages: make([]PageUpdate, 0, n)}
	buf := make([]byte, n*PageSize)
	for i, p := range s.pages {
		if full || s.dirty[i] {
			page := buf[:PageSize:PageSize]
			buf = buf[PageSize:]
			copy(page, p)
			d.Pages = append(d.Pages, PageUpdate{Index: i, Data: page})
			s.dirty[i] = false
		}
	}
	return d
}

// Checksum returns a CRC32 over the full state image.
func (s *HostState) Checksum() uint32 {
	var sum uint32
	for _, p := range s.pages {
		sum = crc32.Update(sum, crc32.IEEETable, p)
	}
	return sum
}

// Snapshot returns an independent copy of the full image (for tests and
// for restoring state on rollback).
func (s *HostState) Snapshot() []byte {
	out := make([]byte, 0, len(s.pages)*PageSize)
	for _, p := range s.pages {
		out = append(out, p...)
	}
	return out
}

// Equal reports whether image is, byte for byte, the state's full image
// — what Snapshot would return — by walking the pages in place: the
// per-checkpoint "did the station reconstruct what the host holds"
// comparison must not copy the state to make it.
func (s *HostState) Equal(image []byte) bool {
	if len(image) != len(s.pages)*PageSize {
		return false
	}
	for i, p := range s.pages {
		if !bytes.Equal(p, image[i*PageSize:(i+1)*PageSize]) {
			return false
		}
	}
	return true
}

// Restore overwrites the state with a full image previously produced by
// Snapshot, marking everything clean.
func (s *HostState) Restore(image []byte) error {
	if len(image) != len(s.pages)*PageSize {
		return fmt.Errorf("statestore: image size %d != state size %d", len(image), len(s.pages)*PageSize)
	}
	for i := range s.pages {
		copy(s.pages[i], image[i*PageSize:(i+1)*PageSize])
		s.dirty[i] = false
	}
	return nil
}
