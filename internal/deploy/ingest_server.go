package deploy

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"time"

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
// collectors lookup names by the frames' instance slots, acking each so the
// relay can retransmit over a reconnect. A batch rejected by validation —
// or naming no query (unknown-query) — is acked with the rejected status:
// the relay logs and counts it but does not retry (resending cannot help);
// an undecodable frame has no (relay, seq) identity to ack and is dropped.
func serveRelayConn(ctx context.Context, conn transport.Conn, s *serverSetup, opts ServerOptions, lookup func(id int) *collector) {
	rules := ingest.ConfigRules(s.cfg)
	for {
		msg, err := conn.Recv(ctx)
		if err != nil {
			return // relay closed or reconnecting; normal end of stream
		}
		f, err := rules.BatchFrame(msg)
		var col *collector
		if err == nil {
			if col = lookup(f.Instance); col == nil {
				err = ingest.UnknownQuery(f.Instance)
			}
		}
		if err != nil {
			_ = rejectSubmission(s.rejected, err)
			if !f.Combined {
				opts.log(levelWarn, "dropping undecodable relay frame: %v", err)
				continue
			}
			relayBatchesTotal("rejected").Inc()
			if conn.Send(ctx, batchAck(f, ingest.BatchRejected)) != nil {
				return
			}
			continue
		}
		col.owe() // the relay awaits this frame's ack: no release until it is out
		status := ingest.BatchAccepted
		switch err := col.add(f); {
		case err == nil:
			relayBatchesTotal("accepted").Inc()
			s.journalEvent(opts, obs.Event{Type: obs.EventRelayBatch, Instance: f.Instance,
				Note: fmt.Sprintf("relay=%d seq=%d users=%d", f.Relay, f.Seq, ingest.Popcount(f.Members))})
		case errors.Is(err, errDuplicateSubmission):
			relayBatchesTotal("replay").Inc() // idempotent retransmission; re-ack
		default:
			status = ingest.BatchRejected
			relayBatchesTotal("rejected").Inc()
		}
		err = conn.Send(ctx, batchAck(f, status))
		col.settle(1)
		if err != nil {
			return
		}
	}
}

// batchAck is the ack of one combined frame.
func batchAck(f ingest.Frame, status int64) *transport.Message {
	return &transport.Message{Kind: transport.KindControl, Flags: []int64{ingest.CtrlBatchAck, f.Relay, f.Seq, status}}
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
// relay submissions exactly like ServeS1/ServeS2 (same validation, same
// metrics, same quorum/deadline release, same journal events), one
// collector per instance behind the same query lookup, but stops once every
// collector has released, without running the protocol: the benchmark's
// ingestion workload uses it as its sink. role labels metrics and the
// journal ("s1" or "s2"); ring is the N² modulus submissions must live in
// (the peer server's Paillier key, as on the real servers).
func RunIngest(ctx context.Context, role string, cfg protocol.Config, ring *big.Int, opts ServerOptions) (*IngestReport, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	s, err := setupServer(ctx, strings.ToUpper(role), cfg, opts)
	if err != nil {
		return nil, err
	}
	defer s.admin.close(ctx)
	defer s.journal.Close()
	defer s.l.Close()
	cols := make([]*collector, opts.Instances)
	for i := range cols {
		cols[i] = s.newCollector(ring)
	}
	lookup := byIndex(cols)
	acceptErr := make(chan error, 1)
	acceptCtx, stopAccept := context.WithCancel(ctx)
	defer s.endHandlers(stopAccept, opts)
	s.trace.put(0) // an S2 sink has no peer to learn a trace ID from; tracing users get 0
	go s.acceptLoop(acceptCtx, opts, routes{
		relay: func(ctx context.Context, conn transport.Conn) { serveRelayConn(ctx, conn, s, opts, lookup) },
		user: func(ctx context.Context, conn transport.Conn) error {
			return s.serveUserConn(ctx, conn, lookup, nil)
		},
	}, acceptErr)
	start := time.Now()
	rep := &IngestReport{}
	for i, col := range cols {
		if err := col.wait(ctx, start, opts.submitWindow(), strings.ToLower(role)); err != nil {
			select {
			case aerr := <-acceptErr:
				return nil, aerr
			default:
			}
			return nil, err
		}
		bm := col.bitmap()
		rep.Instances = append(rep.Instances, IngestInstance{Instance: i, Participants: ingest.Popcount(bm), Bitmap: bm})
	}
	return rep, nil
}

// byIndex is the query lookup over a fixed collector list: id i names
// cols[i], anything else no query.
func byIndex(cols []*collector) func(id int) *collector {
	return func(id int) *collector {
		if id < 0 || id >= len(cols) {
			return nil
		}
		return cols[id]
	}
}
