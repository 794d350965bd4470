package statestore

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// Image is a reconstructed checkpoint held on a station's stable storage.
type Image struct {
	Host     int
	Seq      int // checkpoint ordinal
	Data     []byte
	Checksum uint32
}

// Verify recomputes the checksum over Data and compares it with the one
// the host shipped.
func (im *Image) Verify() error {
	if got := crc32.ChecksumIEEE(im.Data); got != im.Checksum {
		return fmt.Errorf("statestore: host %d seq %d image corrupt (crc %08x != %08x)",
			im.Host, im.Seq, got, im.Checksum)
	}
	return nil
}

// StationStore is one MSS's stable storage for reconstructed host
// checkpoints. Stations form a group: when a host's previous checkpoint
// lives on another station (the host switched cells), the store fetches
// it from the sibling before applying the incremental delta — the §2.2
// "transfer operation".
type StationStore struct {
	id     int
	latest map[int]*Image // per host, the newest reconstructed image
	// history retains every reconstructed image per host and sequence
	// number, so rollback can restore any checkpoint still referenced by
	// a recovery line (Group.Discard drops the rest).
	history map[int]map[int]*Image

	// fetch resolves a host's latest image held by any sibling station;
	// wired accumulates the bytes it moved (the wired-network cost).
	fetch func(host int) (*Image, error)
	wired int64
}

// Group is a set of stations that can fetch checkpoints from each other
// over the wired network.
type Group struct {
	stations []*StationStore
	floor    map[int]int // per host, the seq Discard dropped its images below
}

// NewGroup creates n stations wired together.
func NewGroup(n int) *Group {
	if n <= 0 {
		panic("statestore: group needs at least one station")
	}
	g := &Group{floor: make(map[int]int)}
	for i := 0; i < n; i++ {
		st := &StationStore{id: i, latest: make(map[int]*Image), history: make(map[int]map[int]*Image)}
		g.stations = append(g.stations, st)
	}
	for _, st := range g.stations {
		st.fetch = g.locate
	}
	return g
}

// Station returns station id.
func (g *Group) Station(id int) *StationStore { return g.stations[id] }

// locate finds the newest image of host across all stations.
func (g *Group) locate(host int) (*Image, error) {
	var best *Image
	for _, st := range g.stations {
		if im, ok := st.latest[host]; ok {
			if best == nil || im.Seq > best.Seq {
				best = im
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("statestore: no checkpoint of host %d anywhere", host)
	}
	return best, nil
}

// WiredBytes returns the volume this station fetched from siblings.
func (s *StationStore) WiredBytes() int64 { return s.wired }

// Latest returns the newest reconstructed image of host on this station,
// or nil.
func (s *StationStore) Latest(host int) *Image {
	return s.latest[host]
}

// Apply reconstructs host's next checkpoint from a delta. A full delta
// stands alone; an incremental one is applied over the previous image,
// fetched from a sibling station if this one does not hold it. The
// reconstruction is checksum-verified before it is stored, so a lost or
// reordered delta is detected rather than silently corrupting the
// stable checkpoint.
func (s *StationStore) Apply(host int, d *Delta) (*Image, error) {
	size := d.NumPages * PageSize
	data := make([]byte, size)
	if !d.Full {
		base := s.latest[host]
		if base == nil || base.Seq != d.Seq-1 {
			// The host checkpointed elsewhere since this station last saw
			// it (or never checkpointed here): fetch the newest base from
			// whichever sibling has it (wired transfer).
			fetched, err := s.fetch(host)
			if err != nil {
				return nil, fmt.Errorf("statestore: incremental delta without base: %w", err)
			}
			if fetched != base {
				s.wired += int64(len(fetched.Data))
			}
			base = fetched
		}
		if base.Seq != d.Seq-1 {
			return nil, fmt.Errorf("statestore: host %d delta seq %d over base seq %d", host, d.Seq, base.Seq)
		}
		if len(base.Data) != size {
			return nil, fmt.Errorf("statestore: host %d base size %d != %d", host, len(base.Data), size)
		}
		copy(data, base.Data)
	}
	for _, p := range d.Pages {
		if p.Index < 0 || p.Index >= d.NumPages || len(p.Data) != PageSize {
			return nil, fmt.Errorf("statestore: malformed page update %d", p.Index)
		}
		copy(data[p.Index*PageSize:], p.Data)
	}
	im := &Image{Host: host, Seq: d.Seq, Data: data, Checksum: d.Checksum}
	if err := im.Verify(); err != nil {
		return nil, err
	}
	s.latest[host] = im
	if s.history[host] == nil {
		s.history[host] = make(map[int]*Image)
	}
	s.history[host][d.Seq] = im
	return im, nil
}

// ImageAt returns the reconstructed image of host's checkpoint seq on
// this station, or nil.
func (s *StationStore) ImageAt(host, seq int) *Image {
	return s.history[host][seq]
}

// Discard drops host's images with sequence numbers strictly below seq
// from every station (garbage collection of superseded recovery lines);
// a station's latest image stays the base of its next incremental delta.
// Each call visits only the sequence numbers above the previous call's.
func (g *Group) Discard(host, seq int) {
	for q := g.floor[host]; q < seq; q++ {
		for _, st := range g.stations {
			delete(st.history[host], q)
		}
	}
	g.floor[host] = max(g.floor[host], seq)
}

// ErrDiscarded is FindImage's error for an image Discard dropped.
var ErrDiscarded = errors.New("discarded")

// FindImage locates host's checkpoint seq on any station of the group,
// returning the image and the station holding it, or an error
// (ErrDiscarded when Discard dropped it).
func (g *Group) FindImage(host, seq int) (*Image, *StationStore, error) {
	for _, st := range g.stations {
		if im := st.ImageAt(host, seq); im != nil {
			return im, st, nil
		}
	}
	if seq < g.floor[host] {
		return nil, nil, fmt.Errorf("statestore: image of host %d seq %d: %w", host, seq, ErrDiscarded)
	}
	return nil, nil, fmt.Errorf("statestore: no image of host %d seq %d on any station", host, seq)
}
