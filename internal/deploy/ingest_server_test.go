package deploy

import (
	"context"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/dgk"
	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// TestRunIngestRelayBatches drives a packed ingestion sink over one relay
// connection with everything a child tier can send it: an undecodable
// frame (dropped, no identity to ack), a batch still summed in the
// per-sequence layout's ciphertext count, lying widths, a fresh batch, its
// byte-identical replay, a conflicting reuse of its identity, and the batch
// that fills the grid. Every decodable frame must be acked with the right
// status — the last one too: the sink returns only after that ack is out —
// every refusal counted under its reason, and nothing refused may reach
// the participant set.
func TestRunIngestRelayBatches(t *testing.T) {
	cfg := protocol.DefaultConfig(3)
	cfg.Classes = 4
	cfg.Kappa = 24
	cfg.DGK = dgk.Params{NBits: 160, TBits: 32, U: 1009, L: 50}
	cfg.PaillierBits = 512 // 9 slots of 55 bits: joint group and noisy group one ciphertext each
	cfg.Packing = true
	if got := cfg.HalfLens(); got != [3]int{1, 0, 1} {
		t.Fatalf("HalfLens = %v, want [1 0 1]", got)
	}
	ring := new(big.Int).Lsh(big.NewInt(1), 1024)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ready := make(chan string, 1)
	type result struct {
		rep *IngestReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := RunIngest(ctx, "s1", cfg, ring, ServerOptions{ListenAddr: "127.0.0.1:0", Instances: 1, Ready: ready})
		done <- result{rep, err}
	}()
	var addr string
	select {
	case addr = <-ready:
	case r := <-done:
		t.Fatalf("sink did not start: %v", r.err)
	}
	conn, err := transport.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := ingest.SendHello(ctx, conn, ingest.PartyRelay, ingest.CapPresum|ingest.CapPacked); err != nil {
		t.Fatal(err)
	}

	cts := func(n int, v int64) []*paillier.Ciphertext {
		out := make([]*paillier.Ciphertext, n)
		for i := range out {
			out[i] = &paillier.Ciphertext{C: big.NewInt(v)}
		}
		return out
	}
	batch := func(seq, bitmap int64, width, joint int, v int64) *transport.Message {
		t.Helper()
		msg, err := ingest.EncodePackedCombined(ingest.Combined{
			Relay: 9, Seq: seq, Instance: 0, Bitmap: big.NewInt(bitmap), Width: width, Classes: cfg.Classes,
			Half: protocol.SubmissionHalf{Votes: cts(joint, v), Noisy: cts(1, v)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	w := cfg.PackedWidth()
	exchange := func(name string, msg *transport.Message, seq, wantStatus int64, reason string) {
		t.Helper()
		before := submissionsRejected(reason).Value()
		if err := conn.Send(ctx, msg); err != nil {
			t.Fatalf("%s: send: %v", name, err)
		}
		ack, err := transport.ExpectControl(ctx, conn, ingest.CtrlBatchAck)
		if err != nil {
			t.Fatalf("%s: no ack: %v", name, err)
		}
		if len(ack) != 3 || ack[0] != 9 || ack[1] != seq || ack[2] != wantStatus {
			t.Fatalf("%s: ack %v, want [9 %d %d]", name, ack, seq, wantStatus)
		}
		if reason != "" && submissionsRejected(reason).Value() != before+1 {
			t.Errorf("%s: rejection counter %q did not tick", name, reason)
		}
	}

	// No (relay, seq) to ack: counted, dropped, connection kept.
	garbled := batch(0, 0b011, w, 1, 5)
	garbled.Values = garbled.Values[:1]
	badFrames := submissionsRejected("bad-frame").Value()
	if err := conn.Send(ctx, garbled); err != nil {
		t.Fatal(err)
	}
	exchange("old ciphertext count", batch(1, 0b011, w, 2, 5), 1, ingest.BatchRejected, "bad-length")
	if got := submissionsRejected("bad-frame").Value(); got != badFrames+1 {
		t.Errorf("undecodable frame: bad-frame counter moved %d -> %d, want +1", badFrames, got)
	}
	exchange("width below the headroom", batch(2, 0b011, cfg.PackedHeadroomBits(), 1, 5), 2, ingest.BatchRejected, "slot-overflow")
	exchange("wrong width", batch(3, 0b011, w+1, 1, 5), 3, ingest.BatchRejected, "bad-width")
	exchange("first batch", batch(4, 0b011, w, 1, 5), 4, ingest.BatchAccepted, "")
	exchange("replay", batch(4, 0b011, w, 1, 5), 4, ingest.BatchAccepted, "")
	exchange("conflicting identity", batch(4, 0b100, w, 1, 6), 4, ingest.BatchRejected, "duplicate")
	exchange("overlap", batch(5, 0b110, w, 1, 6), 5, ingest.BatchRejected, "overlap")
	exchange("last batch", batch(6, 0b100, w, 1, 6), 6, ingest.BatchAccepted, "")

	r := <-done
	if r.err != nil {
		t.Fatalf("RunIngest: %v", r.err)
	}
	if len(r.rep.Instances) != 1 || r.rep.Instances[0].Participants != 3 || r.rep.Instances[0].Bitmap.Int64() != 0b111 {
		t.Fatalf("report = %+v, want 3 participants", r.rep.Instances)
	}
}

// TestRelayAndServerRejectAlike holds a relay and a server to one intake: a
// real relay and a RunIngest sink on loopback, both packed, each get the
// same hostile frames — a user frame and a combined frame each, on one
// connection per kind — and must count every one under the same reason and
// keep the connection. The valid frames sent last must still be accepted:
// the relay forwards its users to the sink, which releases only once all
// four users are covered.
func TestRelayAndServerRejectAlike(t *testing.T) {
	const users = 4
	cfg := protocol.DefaultConfig(users)
	cfg.Classes = 4
	cfg.Kappa = 24
	cfg.DGK = dgk.Params{NBits: 160, TBits: 32, U: 1009, L: 50}
	cfg.PaillierBits = 512
	cfg.Packing = true
	if got := cfg.HalfLens(); got != [3]int{1, 0, 1} {
		t.Fatalf("HalfLens = %v, want [1 0 1]", got)
	}
	sk, err := paillier.GenerateKey(rand.New(rand.NewSource(29)), cfg.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	pk := sk.Public()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	type result struct {
		rep *IngestReport
		err error
	}
	sinkReady, sinkDone := make(chan string, 1), make(chan result, 1)
	go func() {
		rep, err := RunIngest(ctx, "s1", cfg, pk.N2, ServerOptions{ListenAddr: "127.0.0.1:0", Instances: 1, Ready: sinkReady})
		sinkDone <- result{rep, err}
	}()
	var sinkAddr string
	select {
	case sinkAddr = <-sinkReady:
	case r := <-sinkDone:
		t.Fatalf("sink did not start: %v", r.err)
	}
	relayCtx, stopRelay := context.WithCancel(ctx)
	relayReady, relayReady2, relayDone := make(chan string, 1), make(chan string, 1), make(chan error, 1)
	go func() {
		relayDone <- ingest.Run(relayCtx, ingest.Options{
			ListenS1: "127.0.0.1:0", ListenS2: "127.0.0.1:0", UpstreamS1: sinkAddr, UpstreamS2: sinkAddr,
			RelayID: 9, Users: users, Instances: 1, Classes: cfg.Classes, PK1: pk, PK2: pk,
			Packed: ingest.ConfigRules(cfg).Packed, ReadyS1: relayReady, ReadyS2: relayReady2,
		})
	}()
	var conns []transport.Conn
	defer func() {
		for _, c := range conns { // a relay drains its open connections before it returns
			c.Close()
		}
		stopRelay()
		<-relayDone
	}()
	var relayAddr string
	select {
	case relayAddr = <-relayReady:
	case err := <-relayDone:
		t.Fatalf("relay did not start: %v", err)
	}

	dial := func(addr string, party, caps int64) transport.Conn {
		t.Helper()
		conn, err := transport.Dial(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		if err := ingest.SendHello(ctx, conn, party, caps); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	type node struct {
		name        string
		user, batch transport.Conn
		rejected    func(reason string) int64
	}
	nodes := []node{
		{"relay", dial(relayAddr, ingest.PartyUser, 0), dial(relayAddr, ingest.PartyRelay, ingest.CapPresum|ingest.CapPacked),
			func(reason string) int64 {
				return obs.Default.CounterValue("privconsensus_relay_rejected_total", obs.L("side", "s1"), obs.L("reason", reason))
			}},
		{"server", dial(sinkAddr, ingest.PartyUser, 0), dial(sinkAddr, ingest.PartyRelay, ingest.CapPresum|ingest.CapPacked),
			func(reason string) int64 { return submissionsRejected(reason).Value() }},
	}

	w := cfg.PackedWidth()
	half := func(joint int) protocol.SubmissionHalf {
		cts := func(n int) []*paillier.Ciphertext {
			out := make([]*paillier.Ciphertext, n)
			for i := range out {
				out[i] = &paillier.Ciphertext{C: big.NewInt(5)}
			}
			return out
		}
		return protocol.SubmissionHalf{Votes: cts(joint), Noisy: cts(1)}
	}
	userFrame := func(user, instance, width, joint int) *transport.Message {
		msg, err := ingest.EncodePackedHalf(user, instance, cfg.Classes, width, half(joint))
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	batchFrame := func(relay, seq int64, bitmap *big.Int, width, joint int) *transport.Message {
		msg, err := ingest.EncodePackedCombined(ingest.Combined{Relay: relay, Seq: seq, Bitmap: bitmap,
			Width: width, Classes: cfg.Classes, Half: half(joint)})
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	// send delivers one frame and waits until the node has handled it: a
	// user frame is followed by the done/ack exchange, a combined frame is
	// acked itself. It returns the batch ack's status.
	send := func(n node, msg *transport.Message, batch bool) int64 {
		t.Helper()
		conn := n.user
		if batch {
			conn = n.batch
		}
		if err := conn.Send(ctx, msg); err != nil {
			t.Fatalf("%s: send: %v", n.name, err)
		}
		if batch {
			ack, err := transport.ExpectControl(ctx, conn, ingest.CtrlBatchAck)
			if err != nil {
				t.Fatalf("%s: no batch ack: %v", n.name, err)
			}
			return ack[2]
		}
		if err := transport.SendControl(ctx, conn, ingest.CtrlUploadDone, 0); err != nil {
			t.Fatalf("%s: done: %v", n.name, err)
		}
		if _, err := transport.ExpectControl(ctx, conn, ingest.CtrlUploadAck); err != nil {
			t.Fatalf("%s: connection lost: %v", n.name, err)
		}
		return -1
	}

	for _, row := range []struct {
		name, reason string
		batch        bool
		msg          *transport.Message
	}{
		{"(a) bitmap naming a user beyond the grid", "bad-bitmap", true, batchFrame(3, 0, big.NewInt(1<<users), w, 1)},
		{"(b) unknown user with a wrong width", "unknown-user", false, userFrame(users+5, 0, w+1, 1)},
		{"(c) wrong ciphertext count and wrong width", "bad-length", true, batchFrame(3, 1, big.NewInt(0b10), w+1, 2)},
		{"(d) undecodable user frame", "bad-frame", false,
			&transport.Message{Kind: transport.KindPacked, Flags: []int64{0, 0, int64(cfg.Classes), int64(w), 0}, Values: []*big.Int{big.NewInt(5)}}},
		{"(e) instance outside the grid", "unknown-query", false, userFrame(0, 5, w, 1)},
	} {
		for _, n := range nodes {
			before := n.rejected(row.reason)
			if status := send(n, row.msg, row.batch); row.batch && status != ingest.BatchRejected {
				t.Errorf("%s: %s acked status %d, want rejected", row.name, n.name, status)
			}
			if after := n.rejected(row.reason); after != before+1 {
				t.Errorf("%s: %s counted %q %d -> %d, want +1", row.name, n.name, row.reason, before, after)
			}
		}
	}

	// The same connections still carry valid frames: the relay takes users
	// 0 and 1 and forwards them, the sink takes users 2 and 3 itself.
	for i, n := range nodes {
		u := 2 * i
		send(n, userFrame(u, 0, w, 1), false)
		if status := send(n, batchFrame(int64(3+i), 2, big.NewInt(1<<(u+1)), w, 1), true); status != ingest.BatchAccepted {
			t.Errorf("%s: valid batch acked status %d", n.name, status)
		}
	}
	r := <-sinkDone
	if r.err != nil {
		t.Fatalf("RunIngest: %v", r.err)
	}
	if got := r.rep.Instances[0].Bitmap; got.Int64() != 0b1111 {
		t.Fatalf("sink covered %b, want all four users", got)
	}
}
