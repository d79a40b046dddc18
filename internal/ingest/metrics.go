package ingest

import "github.com/privconsensus/privconsensus/internal/obs"

// Relay metric families. side is the destination server the traffic is
// bound for ("s1"/"s2"): each relay runs one independent pipeline per side.

// relayUsers counts user submission frames a relay accepted into a batch.
func relayUsers(side string) *obs.Counter {
	return obs.Default.Counter("privconsensus_relay_users_total",
		"User submission frames accepted into a relay batch.",
		obs.L("side", side))
}

// relayRejected counts frames a relay refused, by the reason vocabulary
// the servers use (unknown-user, bad-length, out-of-ring, duplicate), with
// bad-instance for an instance outside the relay's range, plus the
// relay-specific overlap and bad-frame.
func relayRejected(side, reason string) *obs.Counter {
	return obs.Default.Counter("privconsensus_relay_rejected_total",
		"Frames rejected by relay-side validation.",
		obs.L("side", side), obs.L("reason", reason))
}

// relayBatchesOut counts combined frames a relay forwarded upstream, by
// outcome: acked (accepted upstream), rejected (upstream validation said
// no) or dropped (retry budget exhausted).
func relayBatchesOut(side, outcome string) *obs.Counter {
	return obs.Default.Counter("privconsensus_relay_batches_out_total",
		"Combined frames forwarded upstream by a relay.",
		obs.L("side", side), obs.L("outcome", outcome))
}

// relayBatchesIn counts combined frames a relay received from child relays,
// by outcome: accepted, replay (tolerated duplicate) or rejected.
func relayBatchesIn(side, outcome string) *obs.Counter {
	return obs.Default.Counter("privconsensus_relay_batches_in_total",
		"Combined frames received from child relays.",
		obs.L("side", side), obs.L("outcome", outcome))
}

// relayForwardRetries counts upstream delivery retries (reconnects and
// resends after a lost ack).
func relayForwardRetries(side string) *obs.Counter {
	return obs.Default.Counter("privconsensus_relay_forward_retries_total",
		"Upstream batch delivery retries.",
		obs.L("side", side))
}

// rehomesTotal counts uploader failovers to the next endpoint in its list —
// a leaf re-homing away from a dead relay.
func rehomesTotal() *obs.Counter {
	return obs.Default.Counter("privconsensus_rehomes_total",
		"Uploader failovers to a sibling endpoint after exhausting retries.")
}
