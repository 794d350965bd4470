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
	// Fetched is the wired volume Apply moved from a sibling station to
	// build this image: the base's size when the base was elsewhere, else 0.
	Fetched int64

	station int // the station that built and holds it
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
	id int
	g  *Group
}

// Group is a set of stations that can fetch checkpoints from each other
// over the wired network.
//
// The images are kept per host, not per station: everything Apply,
// Discard and FindImage touch for host h is h's own table, so calls for
// two different hosts share no memory and may run on two goroutines —
// once the group has the hosts' tables, which NewGroupOf makes up front.
// A group from NewGroup makes a table the first time a host is seen, and
// is for one goroutine.
type Group struct {
	stations []*StationStore
	hosts    []*hostImages
}

// hostImages is one host's images across the group.
type hostImages struct {
	// floor is the ordinal Discard dropped the host's images below, and
	// byOrd[i] the image of checkpoint floor+i (nil: none).
	floor int
	byOrd []*Image
	// latest is, per station, the newest image it built: the base of its
	// next incremental delta. wired is, per station, the bytes its
	// reconstructions fetched from siblings.
	latest []*Image
	wired  []int64
	// free holds the images Discard dropped that no station still builds
	// on; Apply reconstructs into them before it allocates.
	free []*Image
}

// NewGroup creates n stations wired together.
func NewGroup(n int) *Group { return NewGroupOf(n, 0) }

// NewGroupOf creates n stations wired together, with the image tables of
// hosts 0..hosts-1 made up front.
func NewGroupOf(n, hosts int) *Group {
	if n <= 0 {
		panic("statestore: group needs at least one station")
	}
	g := &Group{stations: make([]*StationStore, n)}
	for i := range g.stations {
		g.stations[i] = &StationStore{id: i, g: g}
	}
	for range hosts {
		g.grow()
	}
	return g
}

// grow makes the table of the next host.
func (g *Group) grow() {
	n := len(g.stations)
	g.hosts = append(g.hosts, &hostImages{latest: make([]*Image, n), wired: make([]int64, n)})
}

// host returns host's table, making the missing ones up to it.
func (g *Group) host(host int) *hostImages {
	for len(g.hosts) <= host {
		g.grow()
	}
	return g.hosts[host]
}

// Station returns station id.
func (g *Group) Station(id int) *StationStore { return g.stations[id] }

// WiredBytes returns the volume this station fetched from siblings. It
// reads every host's table, so call it while no Apply runs.
func (s *StationStore) WiredBytes() int64 {
	var n int64
	for _, hi := range s.g.hosts {
		n += hi.wired[s.id]
	}
	return n
}

// Latest returns the newest reconstructed image of host on this station,
// or nil.
func (s *StationStore) Latest(host int) *Image {
	if host < 0 || host >= len(s.g.hosts) {
		return nil
	}
	return s.g.hosts[host].latest[s.id]
}

// newest finds the newest image of the host across all stations.
func (hi *hostImages) newest() *Image {
	var best *Image
	for _, im := range hi.latest {
		if im != nil && (best == nil || im.Seq > best.Seq) {
			best = im
		}
	}
	return best
}

// Apply reconstructs host's next checkpoint from a delta. A full delta
// stands alone; an incremental one is applied over the previous image,
// fetched from a sibling station if this one does not hold it. The
// reconstruction is checksum-verified before it is stored, so a lost or
// reordered delta is detected rather than silently corrupting the
// stable checkpoint.
//
// The image may be one Discard dropped, rebuilt in place: an image is
// valid until Discard drops it and no station builds on it any more.
func (s *StationStore) Apply(host int, d *Delta) (*Image, error) {
	hi := s.g.host(host)
	size := d.NumPages * PageSize
	var base *Image
	var fetched int64
	if !d.Full {
		base = hi.latest[s.id]
		if base == nil || base.Seq != d.Seq-1 {
			// The host checkpointed elsewhere since this station last saw
			// it (or never checkpointed here): fetch the newest base from
			// whichever sibling has it (wired transfer).
			newest := hi.newest()
			if newest == nil {
				return nil, fmt.Errorf("statestore: incremental delta without base: no checkpoint of host %d anywhere", host)
			}
			if newest != base {
				fetched = int64(len(newest.Data))
			}
			base = newest
		}
		if base.Seq != d.Seq-1 {
			return nil, fmt.Errorf("statestore: host %d delta seq %d over base seq %d", host, d.Seq, base.Seq)
		}
		if len(base.Data) != size {
			return nil, fmt.Errorf("statestore: host %d base size %d != %d", host, len(base.Data), size)
		}
	}
	for _, p := range d.Pages {
		if p.Index < 0 || p.Index >= d.NumPages || len(p.Data) != PageSize {
			return nil, fmt.Errorf("statestore: malformed page update %d", p.Index)
		}
	}
	im := hi.take(size)
	if base != nil {
		copy(im.Data, base.Data)
	} else {
		clear(im.Data)
	}
	for _, p := range d.Pages {
		copy(im.Data[p.Index*PageSize:], p.Data)
	}
	im.Host, im.Seq, im.Checksum, im.Fetched, im.station = host, d.Seq, d.Checksum, fetched, s.id
	if err := im.Verify(); err != nil {
		hi.free = append(hi.free, im)
		return nil, err
	}
	hi.wired[s.id] += fetched
	old := hi.latest[s.id]
	hi.latest[s.id] = im
	var prev *Image
	if i := d.Seq - hi.floor; i >= 0 {
		for len(hi.byOrd) <= i {
			hi.byOrd = append(hi.byOrd, nil)
		}
		prev, hi.byOrd[i] = hi.byOrd[i], im
	}
	hi.release(old)
	if prev != old {
		hi.release(prev)
	}
	return im, nil
}

// take returns an image whose Data holds size bytes: a freed one when
// there is one, else a new one.
func (hi *hostImages) take(size int) *Image {
	if n := len(hi.free); n > 0 {
		im := hi.free[n-1]
		hi.free[n-1] = nil
		hi.free = hi.free[:n-1]
		if cap(im.Data) >= size {
			im.Data = im.Data[:size]
			return im
		}
	}
	return &Image{Data: make([]byte, size)}
}

// release frees im unless it is still a station's latest or the image
// of its ordinal.
func (hi *hostImages) release(im *Image) {
	if im == nil || hi.latest[im.station] == im {
		return
	}
	if i := im.Seq - hi.floor; i >= 0 && i < len(hi.byOrd) && hi.byOrd[i] == im {
		return
	}
	hi.free = append(hi.free, im)
}

// Discard drops host's images with sequence numbers strictly below seq
// from every station (garbage collection of superseded recovery lines);
// a station's latest image stays the base of its next incremental delta.
// Each call visits only the sequence numbers above the previous call's.
func (g *Group) Discard(host, seq int) {
	hi := g.host(host)
	if seq <= hi.floor {
		return
	}
	k := min(seq-hi.floor, len(hi.byOrd))
	for _, im := range hi.byOrd[:k] {
		if im != nil && hi.latest[im.station] != im {
			hi.free = append(hi.free, im)
		}
	}
	n := copy(hi.byOrd, hi.byOrd[k:])
	clear(hi.byOrd[n:])
	hi.byOrd = hi.byOrd[:n]
	hi.floor = seq
}

// Floor returns the ordinal Discard dropped host's images below: every
// image below it is gone, and FindImage reports ErrDiscarded for it.
func (g *Group) Floor(host int) int {
	if host >= 0 && host < len(g.hosts) {
		return g.hosts[host].floor
	}
	return 0
}

// ErrDiscarded is FindImage's error for an image Discard dropped.
var ErrDiscarded = errors.New("discarded")

// FindImage locates host's checkpoint seq on any station of the group,
// returning the image and the station holding it, or an error
// (ErrDiscarded when Discard dropped it).
func (g *Group) FindImage(host, seq int) (*Image, *StationStore, error) {
	if host >= 0 && host < len(g.hosts) {
		hi := g.hosts[host]
		i := seq - hi.floor
		if i < 0 {
			return nil, nil, fmt.Errorf("statestore: image of host %d seq %d: %w", host, seq, ErrDiscarded)
		}
		if i < len(hi.byOrd) && hi.byOrd[i] != nil {
			im := hi.byOrd[i]
			return im, g.stations[im.station], nil
		}
	}
	return nil, nil, fmt.Errorf("statestore: no image of host %d seq %d on any station", host, seq)
}
