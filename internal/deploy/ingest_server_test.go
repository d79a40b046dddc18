package deploy

import (
	"context"
	"math/big"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/dgk"
	"github.com/privconsensus/privconsensus/internal/ingest"
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
