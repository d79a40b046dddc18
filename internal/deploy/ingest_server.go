package deploy

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strings"

	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// relayBatchesTotal counts combined frames this server received from
// relays, by outcome: accepted, replay (tolerated duplicate) or rejected.
func relayBatchesTotal(outcome string) *obs.Counter {
	return obs.Default.Counter("privconsensus_relay_batches_total",
		"Combined relay frames received by a server.",
		obs.L("outcome", outcome))
}

// serveRelayConn drains combined frames from one relay connection into the
// collector, acking each so the relay can retransmit over a reconnect. A
// batch rejected by validation is acked with the rejected status — the
// relay logs and counts it but does not retry (resending cannot help); an
// undecodable frame has no (relay, seq) identity to ack and is dropped.
func serveRelayConn(ctx context.Context, conn transport.Conn, s *serverSetup, opts ServerOptions) {
	for {
		msg, err := conn.Recv(ctx)
		if err != nil {
			return // relay closed or reconnecting; normal end of stream
		}
		var c ingest.Combined
		if msg.Kind == transport.KindPacked {
			c, err = ingest.DecodePackedCombined(msg)
		} else {
			c, err = ingest.DecodeCombined(msg)
		}
		if err != nil {
			submissionsRejected("bad-frame").Inc()
			s.journalEvent(opts, obs.Event{Type: obs.EventRejection, Instance: -1, Note: "bad-frame"})
			opts.log(levelWarn, "dropping undecodable relay frame: %v", err)
			continue
		}
		s.col.owe() // the relay awaits this frame's ack: no release until it is out
		status := ingest.BatchAccepted
		if reason, lerr := packedBatchCheck(s.col, c); reason != "" {
			_ = s.col.reject(reason, lerr)
			relayBatchesTotal("rejected").Inc()
			status = ingest.BatchRejected
		} else {
			err = s.col.addBatch(c.Relay, c.Seq, c.Instance, c.Bitmap, c.Half, ingest.FrameDigest(msg))
			switch {
			case err == nil:
				relayBatchesTotal("accepted").Inc()
				s.journalEvent(opts, obs.Event{Type: obs.EventRelayBatch, Instance: c.Instance,
					Note: fmt.Sprintf("relay=%d seq=%d users=%d", c.Relay, c.Seq, c.Users())})
			case errors.Is(err, errDuplicateSubmission):
				relayBatchesTotal("replay").Inc() // idempotent retransmission; re-ack
			case errors.Is(err, errRejectedSubmission):
				relayBatchesTotal("rejected").Inc()
				status = ingest.BatchRejected
			default:
				s.col.settle(1)
				opts.log(levelWarn, "relay connection error: %v", err)
				return
			}
		}
		ack := &transport.Message{Kind: transport.KindControl,
			Flags: []int64{ingest.CtrlBatchAck, c.Relay, c.Seq, status}}
		err = conn.Send(ctx, ack)
		s.col.settle(1)
		if err != nil {
			return
		}
	}
}

// packedBatchCheck validates a combined frame's declared packing mode and
// slot layout against the collector's expectations, returning a rejection
// reason ("" when the frame is acceptable). Overflow capacity is judged
// against the frame's own declared width before the layout comparison,
// mirroring the relay tier's validation order.
func packedBatchCheck(col *collector, c ingest.Combined) (string, error) {
	p := col.packed
	if (p != nil) != (c.Width > 0) {
		return "bad-frame", fmt.Errorf("combined frame packing mode mismatch (frame packed=%v, server packed=%v)", c.Width > 0, p != nil)
	}
	if p == nil {
		return "", nil
	}
	if c.Users() > p.Capacity(c.Width) {
		return "slot-overflow", fmt.Errorf("batch relay=%d seq=%d sums %d users but width %d absorbs at most %d",
			c.Relay, c.Seq, c.Users(), c.Width, p.Capacity(c.Width))
	}
	if c.Classes != col.packedClasses || c.Width != p.Width {
		return "bad-width", fmt.Errorf("batch relay=%d seq=%d declared packed layout %dx%d, want %dx%d",
			c.Relay, c.Seq, c.Classes, c.Width, col.packedClasses, p.Width)
	}
	return "", nil
}

// IngestInstance is one instance's final ingestion state.
type IngestInstance struct {
	Instance int
	// Participants is the number of users covered (directly or via relay
	// batches).
	Participants int
	// Bitmap has bit u set iff user u's submission was ingested.
	Bitmap *big.Int
}

// IngestReport summarizes one RunIngest run.
type IngestReport struct {
	Instances []IngestInstance
}

// RunIngest runs one server's ingestion path only: it accepts user and
// relay submissions exactly like RunS1/RunS2 (same validation, same
// metrics, same quorum/deadline release, same journal events) but stops
// after the collector releases, without running the protocol: the
// benchmark's ingestion workload uses it as its sink. role labels metrics and
// the journal ("s1" or "s2"); ring is the N² modulus submissions must live
// in (the peer server's Paillier key, as on the real servers).
func RunIngest(ctx context.Context, role string, cfg protocol.Config, ring *big.Int, opts ServerOptions) (*IngestReport, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	s, err := setupServer(ctx, strings.ToUpper(role), cfg, opts, ring)
	if err != nil {
		return nil, err
	}
	defer s.admin.close(ctx)
	defer s.journal.Close()
	defer s.l.Close()
	acceptErr := make(chan error, 1)
	acceptCtx, stopAccept := context.WithCancel(ctx)
	defer stopAccept()
	s.trace.put(0) // an S2 sink has no peer to learn a trace ID from; tracing users get 0
	go s.acceptLoop(acceptCtx, opts, s.gridRoutes(opts, nil), acceptErr)
	if err := collectSubmissions(ctx, s, opts, strings.ToLower(role)); err != nil {
		select {
		case aerr := <-acceptErr:
			return nil, aerr
		default:
		}
		return nil, err
	}
	rep := &IngestReport{}
	for i := 0; i < opts.Instances; i++ {
		bm := s.col.bitmap(i)
		rep.Instances = append(rep.Instances, IngestInstance{Instance: i, Participants: ingest.Popcount(bm), Bitmap: bm})
	}
	return rep, nil
}
