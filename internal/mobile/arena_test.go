package mobile

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/race"
)

// TestShardGeometry pins each network's shard size to its initial host
// count: the least power of two that holds it, at most 4096 records.
func TestShardGeometry(t *testing.T) {
	for _, c := range []struct{ hosts, shard int }{
		{1, 1}, {2, 2}, {10, 16}, {16, 16}, {17, 32}, {4095, 4096}, {4096, 4096}, {4097, 4096},
	} {
		cfg := DefaultConfig()
		cfg.NumHosts = c.hosts
		n, err := New(des.New(), cfg, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if got := cap(n.shards[0]); got != c.shard {
			t.Errorf("%d hosts: shards of %d records, want %d", c.hosts, got, c.shard)
		}
		if want := (c.hosts + c.shard - 1) / c.shard; len(n.shards) != want {
			t.Errorf("%d hosts: %d shards, want %d", c.hosts, len(n.shards), want)
		}
	}
}

// TestHostPointersSurviveJoins holds the arena to the *Host contract: a
// pointer taken before a join still addresses its host after 5 000 joins
// opened further shards, and sees every later move through Network
// methods. The hooks are handed the same pointers. A ten-host network
// (sixteen-record shards) and a 4097-host one (4096-record shards, the
// second one all but empty at the start) are both covered.
func TestHostPointersSurviveJoins(t *testing.T) {
	const joins = 5000
	for _, hosts := range []int{10, 4097} {
		t.Run(fmt.Sprint(hosts), func(t *testing.T) {
			var hooked []*Host
			hooks := Hooks{
				OnCellSwitch: func(_ des.Time, h *Host, _, _ MSSID) { hooked = append(hooked, h) },
				OnDisconnect: func(_ des.Time, h *Host) { hooked = append(hooked, h) },
			}
			cfg := DefaultConfig()
			cfg.NumHosts = hosts
			n, err := New(des.New(), cfg, hooks)
			if err != nil {
				t.Fatal(err)
			}
			var ptrs []*Host
			var start []MSSID
			for i := 0; i < hosts; i++ {
				ptrs = append(ptrs, n.Host(HostID(i)))
				start = append(start, MSSID(i%cfg.NumMSS))
			}
			for i := 0; i < joins; i++ {
				at := MSSID((3 * i) % cfg.NumMSS)
				id, err := n.AddHost(at)
				if err != nil {
					t.Fatal(err)
				}
				ptrs = append(ptrs, n.Host(id))
				start = append(start, at)
			}
			if want := hosts + joins; n.NumHosts() != want || len(ptrs) != want {
				t.Fatalf("%d hosts after the joins, want %d", n.NumHosts(), want)
			}

			// Every third host hands off to the next station, every third
			// disconnects, the rest stay where they joined.
			next := func(at MSSID) MSSID { return (at + 1) % MSSID(cfg.NumMSS) }
			var moved []HostID
			for i := range ptrs {
				id := HostID(i)
				switch i % 3 {
				case 0:
					err = n.SwitchCell(id, next(start[i]))
				case 1:
					err = n.Disconnect(id)
				default:
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				moved = append(moved, id)
			}

			for i, h := range ptrs {
				id := HostID(i)
				if h != n.Host(id) {
					t.Fatalf("host %d moved in the arena: %p, now %p", i, h, n.Host(id))
				}
				if h.ID != id {
					t.Fatalf("the pointer taken for host %d reads host %d", i, h.ID)
				}
				want := struct {
					mss, last                MSSID
					connected                bool
					switches, disconnections int
				}{start[i], start[i], true, 0, 0}
				switch i % 3 {
				case 0:
					want.mss, want.last, want.switches = next(start[i]), next(start[i]), 1
				case 1:
					want.mss, want.connected, want.disconnections = NoMSS, false, 1
				}
				if h.MSS() != want.mss || h.LastMSS() != want.last || h.Connected() != want.connected ||
					h.Switches() != want.switches || h.Disconnects() != want.disconnections {
					t.Fatalf("host %d through its old pointer: at %d (last %d), connected %v, %d switches, %d disconnections; want %+v",
						i, h.MSS(), h.LastMSS(), h.Connected(), h.Switches(), h.Disconnects(), want)
				}
			}
			if len(hooked) != len(moved) {
				t.Fatalf("%d hooks fired for %d moves", len(hooked), len(moved))
			}
			for k, id := range moved {
				if hooked[k] != ptrs[id] {
					t.Fatalf("the hook for host %d was handed %p, not the arena's %p", id, hooked[k], ptrs[id])
				}
			}
		})
	}
}

// TestNewAllocs holds a ten-host network's construction to its own
// size. Its arena shard holds sixteen 104 B records; when every network
// opened a 4096-record shard, New allocated 416 KiB here (go1.24,
// linux/amd64), and each of the paper figures' 126 runs paid it.
func TestNewAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold without -race")
	}
	const limit = 4 << 10
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ { // the least of five: the runtime's own allocations come and go
		sim := des.New()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := New(sim, DefaultConfig(), Hooks{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(n)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("New of ten hosts allocates %d bytes", least)
	if least > limit {
		t.Fatalf("New of ten hosts allocates %d bytes (limit %d)", least, limit)
	}
}
