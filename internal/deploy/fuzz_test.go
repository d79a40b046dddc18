package deploy

import (
	"bytes"
	"context"
	"math/big"
	"testing"

	"github.com/privconsensus/privconsensus/internal/transport"
)

// FuzzPeerFrames feeds one arbitrary frame to each decoder of the frames
// every peer link now carries — the hello, the trace context, the session
// begin/end frames and both halves of the participant exchange. No frame may
// panic a decoder; a malformed one is an error; whatever decodes satisfies
// the decoder's contract; and a bitmap for the wrong instance, a negative one
// or an ack that is not a subset of the proposal stays transport.MarkFatal,
// so no retry loop replays it.
func FuzzPeerFrames(f *testing.F) {
	bitmap := func(code, instance, bm int64) *transport.Message {
		return &transport.Message{Kind: transport.KindControl, Flags: []int64{code, instance}, Values: []*big.Int{big.NewInt(bm)}}
	}
	for _, m := range []*transport.Message{
		{Kind: transport.KindControl, Flags: []int64{partyUser}},
		{Kind: transport.KindControl, Flags: []int64{partyRelay, 16}},
		{Kind: transport.KindControl, Flags: []int64{partyPeer, capPacked, wireVersion}},
		{Kind: transport.KindControl, Flags: []int64{partyUser, 0, wireVersion}}, // version on a user hello
		{Kind: transport.KindControl, Flags: []int64{ctrlTraceContext, 1 << 40}},
		{Kind: transport.KindControl, Flags: []int64{ctrlTraceContext, -1}},
		{Kind: transport.KindControl, Flags: []int64{ctrlBeginInstance, 3, 0, statusOK}},
		{Kind: transport.KindControl, Flags: []int64{ctrlEndSession, statusFailed}},
		{Kind: transport.KindControl, Flags: []int64{ctrlBeginInstance, 3}}, // short
		bitmap(ctrlParticipants, 3, 0b0110),
		bitmap(ctrlParticipants, 4, 0b0110), // wrong instance
		bitmap(ctrlParticipants, 3, -6),     // negative bitmap
		bitmap(ctrlParticipantsAck, 3, 0b0100),
		bitmap(ctrlParticipantsAck, 3, 0b1000),                             // not a subset of the proposal
		{Kind: transport.KindControl, Flags: []int64{ctrlParticipants, 3}}, // no bitmap
		{Kind: transport.KindBatch, Flags: []int64{int64(transport.KindControl), 1, 0, 0}},
	} {
		var buf bytes.Buffer
		if err := transport.WriteMessage(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	const instance = 3
	local := big.NewInt(0b0111) // S2's set, and S1's proposal
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := transport.ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		ctx := context.Background()
		// deliver hands the frame to a decoder over an in-process link. The
		// link buffers one frame per direction, which is all an exchange
		// sends before it reads.
		deliver := func() transport.Conn {
			near, far := transport.Pair()
			t.Cleanup(func() { near.Close(); far.Close() })
			if err := far.Send(ctx, msg); err != nil {
				t.Fatal(err)
			}
			return near
		}

		if h, err := recvHello(ctx, deliver()); err == nil {
			if h.party != partyUser && h.party != partyPeer && h.party != partyRelay {
				t.Fatalf("hello %v decoded to unknown party %d", msg.Flags, h.party)
			}
			if h.version != 0 && h.party != partyPeer {
				t.Fatalf("hello %v carries a wire version on a non-peer link", msg.Flags)
			}
		}
		if id, err := recvTraceContext(ctx, deliver()); err == nil && id < 0 {
			t.Fatalf("trace context %v decoded to negative id %d", msg.Flags, id)
		}
		if fr, err := recvSessionFrame(ctx, deliver()); err == nil {
			if fr.code != ctrlBeginInstance && fr.code != ctrlEndSession {
				t.Fatalf("session frame %v decoded to code %d", msg.Flags, fr.code)
			}
		} else if transport.IsRetryable(err) {
			t.Fatalf("malformed session frame %v is retryable: %v", msg.Flags, err)
		}
		for _, ex := range []struct {
			side string
			run  func(context.Context, transport.Conn, int, *big.Int) (*big.Int, error)
		}{{"S2", exchangeParticipantsS2}, {"S1", exchangeParticipantsS1}} {
			agreed, err := ex.run(ctx, deliver(), instance, local)
			switch {
			case err != nil && transport.IsRetryable(err):
				t.Fatalf("%s: bad participant frame %v is retryable: %v", ex.side, msg.Flags, err)
			case err == nil && (agreed.Sign() < 0 || new(big.Int).AndNot(agreed, local).Sign() != 0):
				t.Fatalf("%s: agreed set %b is not a subset of %b", ex.side, agreed, local)
			}
		}
	})
}
