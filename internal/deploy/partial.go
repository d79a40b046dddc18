package deploy

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"time"

	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// Participation. Every query runs over the users whose validated
// submissions both servers hold. With ServerOptions.Quorum and
// SubmitDeadline unset a collector releases only when full, so that is
// everyone; with either set it releases at the deadline with whoever showed
// up. Either way S1 and S2 must sum the *same* subset, so they agree on it
// per instance with a participant-bitmap exchange on the peer link, right
// after the begin frame and before any Alg. 5 message:
//
//	participants := Message{Kind: KindControl,
//	                        Flags: [104, instance], Values: [bitmap]}  S1→S2
//	ack          := Message{Kind: KindControl,
//	                        Flags: [105, instance], Values: [agreed]}  S2→S1
//
// bitmap bit u is set iff user u's validated submission for the instance is
// held locally. S2 replies with the intersection of S1's proposal and its
// own set; S1 verifies the agreed set is a subset of its proposal. Any
// malformed frame or non-subset ack is marked fatal (transport.MarkFatal):
// a retry cannot fix a peer that disagrees about who participated. Quorum
// and SubmitDeadline are a policy the two servers share: a mismatch can
// cost a wait or a clean ErrQuorumNotMet on one side, never a
// desynchronised frame.

// capPacked is the hello capability bit advertising slot-packed
// submissions (bit 5, shared with the ingestion tier's relay hello) — the
// one real fork of the peer wire, because 64-bit paper keys cannot pack.
// Each server takes the mode from its key file (keygen derives it), so the
// bits differ only across keygen runs: packed submissions change the submit
// frame grammar and insert the blinded unpack round into the peer wire.
const capPacked int64 = ingest.CapPacked

// Participant exchange control codes (Flags[0] of KindControl frames).
const (
	ctrlParticipants    int64 = 104 // [code, instance] + Values [bitmap]  S1→S2
	ctrlParticipantsAck int64 = 105 // [code, instance] + Values [agreed]  S2→S1
)

// submissionsRejected counts submissions a server refused, by reason: the
// intake's (ingest.Rejection), plus late for a frame after release.
func submissionsRejected(reason string) *obs.Counter {
	return obs.Default.Counter("privconsensus_submissions_rejected_total",
		"User submissions rejected by server-side validation.",
		obs.L("reason", reason))
}

// peerCaps returns the capability bits S2 advertises in its peer hello for
// the resolved protocol config (dialS1 adds capServeCtl on the ctl link).
func peerCaps(cfg protocol.Config) int64 {
	if cfg.Packing {
		return capPacked
	}
	return 0
}

// quorumCount resolves the Quorum option against the configured user count:
// (0,1) is a fraction rounded up, >= 1 an absolute count, 0 means any
// participation (1). The result is clamped to [1, users].
func (o ServerOptions) quorumCount(users int) int {
	q := 1
	switch {
	case o.Quorum <= 0:
	case o.Quorum < 1:
		q = int(math.Ceil(o.Quorum * float64(users)))
	default:
		q = int(math.Round(o.Quorum))
	}
	if q < 1 {
		q = 1
	}
	if q > users {
		q = users
	}
	return q
}

// submitWindow is the collector release deadline: SubmitDeadline, the
// attempt timeout when only Quorum is set, and 0 — only a full collector
// releases — when neither is.
func (o ServerOptions) submitWindow() time.Duration {
	switch {
	case o.SubmitDeadline > 0:
		return o.SubmitDeadline
	case o.Quorum > 0:
		return o.attemptTimeout()
	}
	return 0
}

// checkPeerHello verifies (on S1, before anything is sent back) that S2's
// hello names this build's wire version and this server's packing mode. A
// mismatch would desynchronize the wire, so it is refused with
// protocol.ErrPeerMismatch.
func checkPeerHello(h hello, cfg protocol.Config) error {
	var why string
	switch {
	case h.version != wireVersion:
		why = fmt.Sprintf("peer S2 speaks wire version %d, this server %d; run the same build on both servers", h.version, wireVersion)
	case cfg.Packing != (h.caps&capPacked != 0):
		why = "S1 and S2 disagree on slot packing; give both servers key files from the same keygen run"
	default:
		return nil
	}
	return transport.MarkFatal(fmt.Errorf("deploy: %s: %w", why, protocol.ErrPeerMismatch))
}

// exchangeParticipantsS1 proposes S1's local participant set for one
// instance and returns the agreed set from S2's ack. An ack that is not a
// subset of the proposal is a fatal protocol mismatch: it would make the
// servers sum different share subsets and decrypt garbage.
func exchangeParticipantsS1(ctx context.Context, conn transport.Conn, instance int, proposal *big.Int) (*big.Int, error) {
	err := conn.Send(ctx, &transport.Message{
		Kind:   transport.KindControl,
		Flags:  []int64{ctrlParticipants, int64(instance)},
		Values: []*big.Int{proposal},
	})
	if err != nil {
		return nil, fmt.Errorf("deploy: send participants for instance %d: %w", instance, err)
	}
	msg, err := transport.ExpectKind(ctx, conn, transport.KindControl)
	if err != nil {
		return nil, fmt.Errorf("deploy: participants ack for instance %d: %w", instance, err)
	}
	if len(msg.Flags) != 2 || msg.Flags[0] != ctrlParticipantsAck ||
		msg.Flags[1] != int64(instance) || len(msg.Values) != 1 || msg.Values[0] == nil {
		return nil, transport.MarkFatal(fmt.Errorf("deploy: malformed participants ack %v for instance %d", msg.Flags, instance))
	}
	agreed := msg.Values[0]
	if agreed.Sign() < 0 || new(big.Int).AndNot(agreed, proposal).Sign() != 0 {
		return nil, transport.MarkFatal(fmt.Errorf("deploy: instance %d participant bitmap mismatch (agreed set is not a subset of the proposal): %w",
			instance, protocol.ErrPeerMismatch))
	}
	return agreed, nil
}

// exchangeParticipantsS2 receives S1's proposal for one instance, replies
// with the intersection against S2's local set, and returns it.
func exchangeParticipantsS2(ctx context.Context, conn transport.Conn, instance int, local *big.Int) (*big.Int, error) {
	msg, err := transport.ExpectKind(ctx, conn, transport.KindControl)
	if err != nil {
		return nil, fmt.Errorf("deploy: participants for instance %d: %w", instance, err)
	}
	if len(msg.Flags) != 2 || msg.Flags[0] != ctrlParticipants || len(msg.Values) != 1 || msg.Values[0] == nil {
		return nil, transport.MarkFatal(fmt.Errorf("deploy: malformed participants frame %v for instance %d", msg.Flags, instance))
	}
	if msg.Flags[1] != int64(instance) {
		return nil, transport.MarkFatal(fmt.Errorf("deploy: participants frame for instance %d while running instance %d: %w",
			msg.Flags[1], instance, protocol.ErrPeerMismatch))
	}
	proposal := msg.Values[0]
	if proposal.Sign() < 0 {
		return nil, transport.MarkFatal(fmt.Errorf("deploy: negative participant bitmap for instance %d", instance))
	}
	agreed := new(big.Int).And(proposal, local)
	err = conn.Send(ctx, &transport.Message{
		Kind:   transport.KindControl,
		Flags:  []int64{ctrlParticipantsAck, int64(instance)},
		Values: []*big.Int{agreed},
	})
	if err != nil {
		return nil, fmt.Errorf("deploy: send participants ack for instance %d: %w", instance, err)
	}
	return agreed, nil
}
