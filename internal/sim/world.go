package sim

import (
	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs/probe"
	"mobickpt/internal/protocol"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/rng"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
	"mobickpt/internal/workload"
)

// wireWorld builds the network, the protocol slots and the driver, in
// that order: protocols need the network for host locations, and the
// driver sends through both.
func (e *engine) wireWorld() error {
	cfg := e.cfg
	n := cfg.Mobile.NumHosts
	net, err := mobile.NewSched(e.sched, e.lanes, cfg.Mobile, e.hooks())
	if err != nil {
		return err
	}
	if cfg.Mobile.LossProbability > 0 {
		// A dedicated stream: losses must not perturb the workload's
		// randomness, or traces would stop being loss-model-independent.
		net.SetLossSource(rng.NewStream(cfg.Seed, 1<<32))
	}
	if cfg.Probes {
		e.msgProbe = make([]probe.PoolProbe, e.lanes)
		net.SetPoolProbe(e.msgProbe)
	}
	e.net = net

	e.pendingLatency = make([]des.Time, n)
	for i, name := range cfg.Protocols {
		ent, _ := protocol.Lookup(string(name)) // Validate resolved every name
		err := cfg.initSlot(e.Side, i, cfg.RecordTrace, func(ckpt protocol.Checkpointer, store *storage.Store) (protocol.Protocol, error) {
			if e.cfg.CheckpointLatency > 0 {
				ckpt = e.chargeLatency(ckpt)
			}
			return ent.New(n, ckpt, store, e.Station), nil
		})
		if err != nil {
			return err
		}
		if cfg.Timeline != nil {
			// The timeline is drawn after the run from the history and the
			// decision logs (protoside.Side.RenderTimeline).
			e.Slots[i].Dec = replaycmp.NewLog(string(name), n)
		}
	}
	cb := workload.Callbacks{
		Send:    e.send,
		Receive: func(h mobile.HostID) bool { return net.TryReceive(h) != nil },
	}
	if cfg.CheckpointLatency > 0 {
		cb.ExtraDelay = func(h mobile.HostID) des.Time {
			d := e.pendingLatency[h]
			e.pendingLatency[h] = 0
			return d
		}
	}
	e.driver, err = workload.NewDriverSched(e.sched, e.lanes, net, cfg.Workload, cfg.Seed, cb)
	return err
}

// chargeLatency wraps a checkpointer so that each checkpoint of h delays
// h's next operation by Config.CheckpointLatency — the one way a
// checkpoint reaches back into the world.
func (e *engine) chargeLatency(ckpt protocol.Checkpointer) protocol.Checkpointer {
	return func(h mobile.HostID, index int, kind storage.Kind) *storage.Record {
		e.pendingLatency[h] += e.cfg.CheckpointLatency
		return ckpt(h, index, kind)
	}
}

// hooks mirrors the network's mobility and delivery events into the
// protocol side, which moves its own copy of the host's station.
func (e *engine) hooks() mobile.Hooks {
	return mobile.Hooks{
		OnDeliver: e.deliver,
		OnCellSwitch: func(now des.Time, h *mobile.Host, _, to mobile.MSSID) {
			e.push(trace.Event{Kind: trace.Handoff, At: now, Host: int32(h.ID), Arg: int32(to)}, nil)
		},
		OnDisconnect: func(now des.Time, h *mobile.Host) {
			e.push(trace.Event{Kind: trace.Disconnect, At: now, Host: int32(h.ID)}, nil)
		},
		OnReconnect: func(now des.Time, h *mobile.Host, at mobile.MSSID) {
			e.push(trace.Event{Kind: trace.Reconnect, At: now, Host: int32(h.ID), Arg: int32(at)}, nil)
		},
	}
}
