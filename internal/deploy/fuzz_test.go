package deploy

import (
	"bytes"
	"context"
	"errors"
	"math/big"
	"slices"
	"testing"

	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/protocol"
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
		{Kind: transport.KindControl, Flags: []int64{ctrlBeginInstance, 3, 0}},
		{Kind: transport.KindControl, Flags: []int64{ctrlEndSession}},
		{Kind: transport.KindControl, Flags: []int64{ctrlBeginInstance, 3}}, // short
		bitmap(ctrlParticipants, 3, 0b0110),
		bitmap(ctrlParticipants, 4, 0b0110), // wrong instance
		bitmap(ctrlParticipants, 3, -6),     // negative bitmap
		bitmap(ctrlParticipantsAck, 3, 0b0100),
		bitmap(ctrlParticipantsAck, 3, 0b1000),                             // not a subset of the proposal
		{Kind: transport.KindControl, Flags: []int64{ctrlParticipants, 3}}, // no bitmap
		{Kind: transport.KindBatch, Flags: []int64{int64(transport.KindControl), 1, 0, 0}},
		{Kind: transport.KindControl, Flags: []int64{ctrlBeginInstance, 3, 0, 1}}, // a version 2 begin
		{Kind: transport.KindControl, Flags: []int64{ctrlEndSession, 1}},          // a version 2 end
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

// FuzzUserFrames feeds an arbitrary frame sequence through the one
// user-connection handler — the whole untrusted client surface of both modes
// — as S1's serve routes wire it: submit frames (packed or not, by the
// grid's mode) looked up in a two-query table, the done/ack barrier, and the
// admission and result-wait control hook (admission is draining, so every
// request is answered with a typed refusal and nothing blocks). No sequence
// may panic the handler; a malformed frame ends the connection with an
// error or is a counted rejection; no cell is ever recorded for a query
// outside the table or a user outside the grid — only for frames that name
// both; a frame for an unknown query counts as unknown-query; and every
// collector's ack debt is back to zero when the connection ends.
func FuzzUserFrames(f *testing.F) {
	const users, known = 2, 2 // query IDs 0 and 1 are in the table
	grid := func(packed bool) protocol.Config {
		cfg := protocol.DefaultConfig(users)
		cfg.Classes, cfg.Kappa, cfg.Packing = 4, 24, packed
		return cfg
	}
	half := func(cfg protocol.Config, val int64) protocol.SubmissionHalf {
		group := func(n int) []*paillier.Ciphertext {
			out := make([]*paillier.Ciphertext, n)
			for i := range out {
				out[i] = &paillier.Ciphertext{C: big.NewInt(val)}
			}
			return out
		}
		lens := cfg.HalfLens()
		return protocol.SubmissionHalf{Votes: group(lens[0]), Thresh: group(lens[1]), Noisy: group(lens[2])}
	}
	ctrl := func(flags ...int64) *transport.Message {
		return &transport.Message{Kind: transport.KindControl, Flags: flags}
	}
	for _, packed := range []bool{false, true} {
		cfg := grid(packed)
		submit := func(user, qid int, val int64) *transport.Message {
			m, err := encodeSubmission(cfg, user, qid, half(cfg, val))
			if err != nil {
				f.Fatal(err)
			}
			return m
		}
		wrongWidth, err := ingest.EncodePackedHalf(0, 0, cfg.Classes, 3, half(grid(true), 5))
		if err != nil {
			f.Fatal(err)
		}
		for _, seq := range [][]*transport.Message{
			{submit(0, 0, 5), submit(1, 0, 6), ctrl(ctrlUploadDone, -1)},
			{submit(0, 0, 5), submit(0, 0, 5), submit(0, 0, 7), ctrl(ctrlUploadDone, 0), submit(1, 1, 8)}, // replay, conflict
			{submit(0, 7, 5), submit(5, 0, 5), submit(-1, 1, 5), ctrl(ctrlUploadDone)},                    // unknown query, users out of range
			{ctrl(ctrlAdmitRequest, 3, 99), ctrl(ctrlResultWait, 1), ctrl(ctrlResultWait, 42), submit(1, 1, 9)},
			{ctrl(ctrlAdmitRequest, 3)},   // short admit
			{ctrl(ctrlResultWait)},        // short result wait
			{ctrl()},                      // no code at all
			{ctrl(ctrlServeAnnounce, 0)},  // a code clients do not own
			{submit(0, 0, 5), wrongWidth}, // the other grammar, or a bad layout
			{submit(0, 0, 5), {Kind: transport.KindBatch, Flags: []int64{1}}},
		} {
			var buf bytes.Buffer
			for _, m := range seq {
				if err := transport.WriteMessage(&buf, m); err != nil {
					f.Fatal(err)
				}
			}
			f.Add(buf.Bytes(), packed)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, packed bool) {
		var msgs []*transport.Message
		for r := bytes.NewReader(data); len(msgs) < 32; {
			m, err := transport.ReadMessage(r)
			if err != nil {
				break
			}
			msgs = append(msgs, m)
		}
		cfg := grid(packed)
		st := &serveState{
			s:          &serverSetup{cfg: cfg, trace: newTraceState()},
			queries:    map[int]*serveQuery{},
			grants:     map[grantKey]*serveQuery{},
			admissions: map[string]int{},
			draining:   true,
		}
		for qid := 0; qid < known; qid++ {
			q := &serveQuery{qid: qid, col: newCollector(cfg, nil), done: make(chan struct{})}
			q.res = InstanceResult{Instance: qid, Outcome: protocol.Outcome{Label: -1}}
			close(q.done) // result waits answer at once
			st.queries[qid] = q
		}

		// What the sequence may legitimately record, how many frames name a
		// query outside the table, and how many replies it earns.
		var allowed [known]big.Int
		unknown, replies := 0, 0
		for _, m := range msgs {
			if m.Kind == transport.KindControl {
				switch {
				case len(m.Flags) >= 1 && m.Flags[0] == ctrlUploadDone,
					len(m.Flags) >= 3 && m.Flags[0] == ctrlAdmitRequest,
					len(m.Flags) >= 2 && m.Flags[0] == ctrlResultWait:
					replies++
				}
				continue
			}
			user, qid, _, err := ingest.DecodeHalf(m)
			layoutOK := true // the layout is checked before the query is looked up
			if packed {
				var classes, width int
				user, qid, classes, width, _, err = ingest.DecodePackedHalf(m)
				layoutOK = classes == cfg.Classes && width == cfg.PackedWidth()
			}
			switch {
			case err != nil || !layoutOK:
			case qid < 0 || qid >= known:
				unknown++
			case user >= 0 && user < users:
				allowed[qid].SetBit(&allowed[qid], user, 1)
			}
		}

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		before := obs.Default.CounterValue("privconsensus_submissions_rejected_total", obs.L("reason", "unknown-query"))
		user, server := transport.Pair()
		served := make(chan error, 1)
		go func() {
			err := st.routes(nil).user(ctx, server)
			server.Close() // as the accept loop does: unblocks the client side
			served <- err
		}()
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for got := 0; got < replies; got++ {
				if _, err := user.Recv(ctx); err != nil {
					return
				}
			}
		}()
		for _, m := range msgs {
			if user.Send(ctx, m) != nil {
				break // the handler gave up on a malformed frame
			}
		}
		<-drained
		user.Close()
		err := <-served

		for qid, q := range st.queries {
			q.col.mu.Lock()
			owed, covered := q.col.owed, new(big.Int).Set(q.col.covered)
			q.col.mu.Unlock()
			if owed != 0 {
				t.Fatalf("query %d still owes %d acks after the connection ended", qid, owed)
			}
			if extra := new(big.Int).AndNot(covered, &allowed[qid]); extra.Sign() != 0 {
				t.Fatalf("query %d recorded cells %b no frame named (allowed %b)", qid, covered, &allowed[qid])
			}
		}
		after := obs.Default.CounterValue("privconsensus_submissions_rejected_total", obs.L("reason", "unknown-query"))
		if err == nil && int(after-before) != unknown {
			t.Fatalf("%d frames named a query outside the table, %d unknown-query rejections counted", unknown, int(after-before))
		}
	})
}

// FuzzCtlFrames feeds an arbitrary frame sequence to S2's end of the ctl
// link (serveS2.ctlServe) over a pipe, against a model of its epochs: epoch
// 0 loaded, epoch 1 provisioned but retired, nothing else provisioned. No
// sequence may panic it. Every request is answered with the model's reply —
// an announce or prepare into an unprovisioned or retired epoch acks status
// 1, a repeated announce acks what the first did without registering the
// query twice, a repeated drain acks again — until the first frame that
// ends the link: an unknown code ends it with a fatal error, a short frame
// with an error.
func FuzzCtlFrames(f *testing.F) {
	ctrl := func(flags ...int64) *transport.Message {
		return &transport.Message{Kind: transport.KindControl, Flags: flags}
	}
	for _, seq := range [][]*transport.Message{
		{ctrl(ctrlServeAnnounce, 0, 0, 1), ctrl(ctrlServeAnnounce, 0, 0, 1), ctrl(ctrlServeAnnounce, 1, 0, 2)},  // replayed announce
		{ctrl(ctrlServeAnnounce, 2, 1, 1), ctrl(ctrlServeAnnounce, 3, 5, 1), ctrl(ctrlServeAnnounce, 4, -1, 1)}, // retired, unprovisioned
		{ctrl(ctrlEpochPrepare, 0), ctrl(ctrlEpochPrepare, 1), ctrl(ctrlEpochPrepare, 2), ctrl(ctrlEpochCommit, 0)},
		{ctrl(ctrlServeAnnounce, 0, 0, 1), ctrl(ctrlEpochRetire, 0), ctrl(ctrlServeAnnounce, 0, 0, 1), ctrl(ctrlServeAnnounce, 1, 0, 1)},
		{ctrl(ctrlServeDrain, 0), ctrl(ctrlServeDrain, 0), ctrl(ctrlServeAnnounce, 5, 0, 1)},
		{ctrl(ctrlServeAnnounce, 0, 0)},                  // short announce
		{ctrl(ctrlEpochPrepare)},                         // short frame
		{ctrl()},                                         // no code at all
		{ctrl(ctrlServeAck, 0, 0)},                       // a reply code S2 never receives
		{ctrl(ctrlBeginInstance, 0, 0)},                  // a protocol-link code
		{{Kind: transport.KindBatch, Flags: []int64{1}}}, // not a control frame
	} {
		var buf bytes.Buffer
		for _, m := range seq {
			if err := transport.WriteMessage(&buf, m); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(buf.Bytes())
	}

	cfg := protocol.DefaultConfig(2)
	cfg.Classes, cfg.Kappa = 4, 24
	f.Fuzz(func(t *testing.T, data []byte) {
		var msgs []*transport.Message
		for r := bytes.NewReader(data); len(msgs) < 32; {
			m, err := transport.ReadMessage(r)
			if err != nil {
				break
			}
			msgs = append(msgs, m)
		}
		st := &serveS2{
			s:          &serverSetup{cfg: cfg, trace: newTraceState()},
			files:      make([]*keystore.S2File, 2),
			epochs:     map[int]*s2Epoch{0: {}},
			retired:    map[int]bool{1: true},
			wantRetire: map[int]bool{},
			queries:    map[int]*s2Query{},
			results:    map[int]InstanceResult{},
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		near, far := transport.Pair()
		defer near.Close()
		drains := 0
		served := make(chan error, 1)
		go func() {
			err := st.ctlServe(ctx, far, func() { drains++ })
			far.Close()
			served <- err
		}()

		// The model: which queries are registered, whether epoch 0 is
		// retired, how many drains were acked, and how the link ends.
		registered := map[int64]bool{}
		retired0 := false
		wantDrains := 0
		fatal, ended := false, false
		status := func(ok bool) int64 {
			if ok {
				return 0
			}
			return 1
		}
		for _, m := range msgs {
			fl := m.Flags
			var want []int64
			switch {
			case m.Kind != transport.KindControl || len(fl) < 2 || (fl[0] == ctrlServeAnnounce && len(fl) < 4):
				ended = true
			case fl[0] == ctrlServeAnnounce:
				ok := registered[fl[1]] || (fl[2] == 0 && !retired0)
				if ok {
					registered[fl[1]] = true
				}
				want = []int64{ctrlServeAck, fl[1], status(ok)}
			case fl[0] == ctrlEpochPrepare:
				want = []int64{ctrlEpochAck, fl[1], status(fl[1] == 0 && !retired0)}
			case fl[0] == ctrlEpochCommit:
				want = []int64{ctrlEpochAck, fl[1], 0}
			case fl[0] == ctrlEpochRetire:
				retired0 = retired0 || fl[1] == 0
				want = []int64{ctrlEpochAck, fl[1], 0}
			case fl[0] == ctrlServeDrain:
				wantDrains++
				want = []int64{ctrlEpochAck, 0, 0}
			default:
				ended, fatal = true, true
			}
			if err := near.Send(ctx, m); err != nil {
				t.Fatalf("ctl link closed before frame %v: %v", fl, err)
			}
			if ended {
				break
			}
			reply, err := near.Recv(ctx)
			if err != nil {
				t.Fatalf("no reply to %v: %v", fl, err)
			}
			if reply.Kind != transport.KindControl || !slices.Equal(reply.Flags, want) {
				t.Fatalf("reply to %v = %v %v, want %v", fl, reply.Kind, reply.Flags, want)
			}
		}
		near.Close()
		err := <-served
		var fe *transport.FatalError
		switch {
		case err == nil:
			t.Fatal("ctlServe returned without an error")
		case fatal && !errors.As(err, &fe):
			t.Fatalf("unknown ctl code ended the link with a retryable error: %v", err)
		}
		if drains != wantDrains || st.draining != (wantDrains > 0) {
			t.Fatalf("drain callback ran %d times (draining=%v), want %d", drains, st.draining, wantDrains)
		}
		if len(st.queries) != len(registered) {
			t.Fatalf("%d queries registered, want %d", len(st.queries), len(registered))
		}
	})
}
