package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"mobickpt/internal/des"
	"mobickpt/internal/mobile"
)

// exportEnvelope is the JSON form of a trace: enough to re-run the
// recovery analysis offline (the checkpoint chains travel separately,
// exported by the experiment layer).
type exportEnvelope struct {
	NumHosts int                `json:"num_hosts"`
	Events   []exportedEvent    `json:"events"`
	Mobility []exportedMobility `json:"mobility,omitempty"`
}

type exportedEvent struct {
	ID          uint64  `json:"id"`
	From        int     `json:"from"`
	To          int     `json:"to"`
	SendCount   int     `json:"send_count"`
	RecvCount   int     `json:"recv_count"`
	SentAt      float64 `json:"sent_at"`
	DeliveredAt float64 `json:"delivered_at"`
}

type exportedMobility struct {
	Host int     `json:"host"`
	Kind string  `json:"kind"`
	From int     `json:"from"`
	To   int     `json:"to"`
	At   float64 `json:"at"`
}

// parseMobilityKind inverts MobilityKind.String.
func parseMobilityKind(s string) (MobilityKind, error) {
	switch s {
	case "handoff":
		return Handoff, nil
	case "disconnect":
		return Disconnect, nil
	case "reconnect":
		return Reconnect, nil
	default:
		return 0, fmt.Errorf("unknown mobility kind %q", s)
	}
}

// Export writes the delivered-message log as JSON. Messages still in
// flight are not exported (they cannot be orphans).
func (t *Trace) Export(w io.Writer) error {
	env := exportEnvelope{NumHosts: t.numHosts}
	for _, ev := range t.events {
		env.Events = append(env.Events, exportedEvent{
			ID:          ev.ID,
			From:        int(ev.From),
			To:          int(ev.To),
			SendCount:   ev.SendCount,
			RecvCount:   ev.RecvCount,
			SentAt:      float64(ev.SentAt),
			DeliveredAt: float64(ev.DeliveredAt),
		})
	}
	for _, ev := range t.mobility {
		env.Mobility = append(env.Mobility, exportedMobility{
			Host: int(ev.Host),
			Kind: ev.Kind.String(),
			From: int(ev.From),
			To:   int(ev.To),
			At:   float64(ev.At),
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(env)
}

// Import reads a trace previously written by Export.
func Import(r io.Reader) (*Trace, error) {
	var env exportEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("trace: import: %w", err)
	}
	if env.NumHosts <= 0 {
		return nil, fmt.Errorf("trace: import: invalid host count %d", env.NumHosts)
	}
	t := New(env.NumHosts)
	lastRecv := make([]int, env.NumHosts)
	for _, ev := range env.Events {
		if ev.From < 0 || ev.From >= env.NumHosts || ev.To < 0 || ev.To >= env.NumHosts {
			return nil, fmt.Errorf("trace: import: event %d has out-of-range hosts %d->%d", ev.ID, ev.From, ev.To)
		}
		if ev.SendCount < 1 || ev.RecvCount < 1 {
			return nil, fmt.Errorf("trace: import: event %d predates the initial checkpoints", ev.ID)
		}
		// A host's checkpoint count only grows; Index panics on a trace
		// that says otherwise, so a file that does is refused here.
		if ev.RecvCount < lastRecv[ev.To] {
			return nil, fmt.Errorf("trace: import: event %d: host %d's recv_count falls from %d to %d", ev.ID, ev.To, lastRecv[ev.To], ev.RecvCount)
		}
		lastRecv[ev.To] = ev.RecvCount
		t.events = append(t.events, MessageEvent{
			ID:          ev.ID,
			From:        mobile.HostID(ev.From),
			To:          mobile.HostID(ev.To),
			SendCount:   ev.SendCount,
			RecvCount:   ev.RecvCount,
			SentAt:      des.Time(ev.SentAt),
			DeliveredAt: des.Time(ev.DeliveredAt),
		})
	}
	for i, ev := range env.Mobility {
		kind, err := parseMobilityKind(ev.Kind)
		if err != nil {
			return nil, fmt.Errorf("trace: import: mobility event %d: %w", i, err)
		}
		if ev.Host < 0 || ev.Host >= env.NumHosts {
			return nil, fmt.Errorf("trace: import: mobility event %d has out-of-range host %d", i, ev.Host)
		}
		t.mobility = append(t.mobility, MobilityEvent{
			Host: mobile.HostID(ev.Host),
			Kind: kind,
			From: mobile.MSSID(ev.From),
			To:   mobile.MSSID(ev.To),
			At:   des.Time(ev.At),
		})
	}
	return t, nil
}
