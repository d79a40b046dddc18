package transport

import "github.com/privconsensus/privconsensus/internal/obs"

// Process-wide transport metrics, registered on the obs default registry.
// Wire counters live at the TCP framing layer and therefore cover all
// traffic (including deploy-mode user uploads); per-step counters are
// recorded by the Meter and cover the metered peer link.
var (
	wireBytesSent = obs.Default.Counter("transport_wire_bytes_total",
		"Total framed bytes on TCP transports, including the 4-byte length prefix.",
		obs.L("dir", "sent"))
	wireBytesReceived = obs.Default.Counter("transport_wire_bytes_total",
		"Total framed bytes on TCP transports, including the 4-byte length prefix.",
		obs.L("dir", "received"))
	wireMsgsSent = obs.Default.Counter("transport_wire_msgs_total",
		"Total messages on TCP transports.", obs.L("dir", "sent"))
	wireMsgsReceived = obs.Default.Counter("transport_wire_msgs_total",
		"Total messages on TCP transports.", obs.L("dir", "received"))

	dialRetries = obs.Default.Counter("retries_total",
		"Retry attempts, by role and scope.",
		obs.L("role", "transport"), obs.L("scope", "dial"))
)

// faultsInjected returns (creating on first use) the injected-fault counter
// for a fault kind.
func faultsInjected(kind string) *obs.Counter {
	return obs.Default.Counter("faults_injected_total",
		"Faults injected by the transport fault injector, by kind.",
		obs.L("kind", kind))
}

// stepCounters caches the per-step obs series a Meter feeds, so the
// registry lookup happens once per (step, direction) instead of per message.
type stepCounters struct {
	bytesSent, bytesReceived *obs.Counter
	msgsSent, msgsReceived   *obs.Counter
	rounds                   *obs.Counter
}

// countersFor returns (creating on first use) the obs series for a step.
// Callers hold the meter's mutex.
func (m *Meter) countersFor(step string) *stepCounters {
	if m.obs == nil {
		m.obs = make(map[string]*stepCounters)
	}
	c, ok := m.obs[step]
	if !ok {
		c = &stepCounters{
			bytesSent: obs.Default.Counter("transport_step_bytes_total",
				"Peer-link bytes metered per protocol step.",
				obs.L("step", step), obs.L("dir", "sent")),
			bytesReceived: obs.Default.Counter("transport_step_bytes_total",
				"Peer-link bytes metered per protocol step.",
				obs.L("step", step), obs.L("dir", "received")),
			msgsSent: obs.Default.Counter("transport_step_msgs_total",
				"Peer-link messages metered per protocol step.",
				obs.L("step", step), obs.L("dir", "sent")),
			msgsReceived: obs.Default.Counter("transport_step_msgs_total",
				"Peer-link messages metered per protocol step.",
				obs.L("step", step), obs.L("dir", "received")),
			rounds: obs.Default.Counter("transport_step_rounds_total",
				"Completed send-then-receive volleys per protocol step.",
				obs.L("step", step)),
		}
		m.obs[step] = c
	}
	return c
}

// FillTrace attributes the meter's per-step traffic to the matching phase
// spans of a query trace. Step labels and phase names are the same strings
// (the protocol's step constants), so the trace's per-phase byte totals
// equal the meter's totals exactly.
func (m *Meter) FillTrace(t *obs.Tracer) {
	if m == nil || t == nil {
		return
	}
	for _, s := range m.Snapshot() {
		t.SetPhaseIO(s.Step, s.BytesSent, s.BytesReceived, s.MsgsSent, s.MsgsReceived, s.Rounds)
	}
}
