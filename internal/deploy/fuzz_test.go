package deploy

import (
	"bytes"
	"context"
	"errors"
	"math/big"
	"slices"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/dp"
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
		msg, _, err := transport.DecodeMessage(data)
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

// admissionState builds S1's serve state for cfg with live admission: an
// in-memory ledger under opts' quotas, no pre-registered query, and a fake S2
// on the ctl link that acks every announce ack approves and refuses the rest
// (status 1, as S2 refuses an announce into an epoch it does not hold). The
// fake S2 answers until ctx ends.
func admissionState(ctx context.Context, t testing.TB, cfg protocol.Config, opts ServeOptions, ack func(qid, tenant int64) bool) *serveState {
	t.Helper()
	ledger, err := dp.OpenLedger("", opts.Tenants, opts.DefaultQuota, opts.delta())
	if err != nil {
		t.Fatal(err)
	}
	cost, err := dp.QuerySpend(cfg.Sigma1, cfg.Sigma2, true, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { obs.SetReadiness("", true) }) // a refusal may publish budget-exhausted
	s1End, s2End := transport.Pair()
	go func() {
		defer s2End.Close()
		for {
			m, err := s2End.Recv(ctx)
			if err != nil || len(m.Flags) < 4 || m.Flags[0] != ctrlServeAnnounce {
				return
			}
			status := int64(0)
			if !ack(m.Flags[1], m.Flags[3]) {
				status = 1
			}
			if transport.SendControl(ctx, s2End, ctrlServeAck, m.Flags[1], status) != nil {
				return
			}
		}
	}()
	src := newPeerSource()
	src.offer(s1End)
	return &serveState{
		s:          &serverSetup{cfg: cfg, trace: newTraceState()},
		opts:       opts,
		ledger:     ledger,
		cost:       cost,
		ctl:        &ctlLink{src: src, timeout: time.Minute},
		rings:      []*big.Int{nil},
		queries:    map[int]*serveQuery{},
		past:       map[int]*serveQuery{},
		grants:     map[grantKey]*serveQuery{},
		retired:    map[int]bool{},
		admissions: map[string]int{},
		rotateKick: make(chan struct{}, 1),
	}
}

// FuzzUserFrames feeds an arbitrary frame sequence through the one
// user-connection handler — the whole untrusted client surface of both modes
// — as S1's serve routes wire it: submit frames (packed or not, by the
// grid's mode) looked up in a two-query table, the done/ack barrier, result
// waits, and live admission. Admission runs against an in-memory ledger in
// which tenant 1 can afford one query and every other tenant is unlimited,
// a window of two in-flight queries, and a fake S2 that acks the announce of
// every even query ID and refuses the odd ones. Behind the table, a full
// replay window of queries tenant 4 was granted and that resolved, and two
// older ones already forgotten. No sequence may panic the handler; a malformed frame
// is a counted rejection or, among control frames, ends the connection with
// an error; no cell is ever recorded for a query outside the table or a user
// outside the grid — only for frames that name both; a frame from a known
// user for a query that is not in flight counts as unknown-query; every
// collector's ack debt is back to zero when the connection ends; one
// (tenant, nonce) is granted at most one query and no query is granted
// twice; a grant in the replay window is replayed as granted; a result wait
// is answered from the table or the window, and resultUnknown for a
// forgotten or never granted query; the in-flight count never exceeds the
// window; and a refused announce hands its reservation back, so tenant 1's
// remaining budget is exactly one query less the live ones it was granted.
func FuzzUserFrames(f *testing.F) {
	const users, known = 2, 2 // query IDs 0 and 1 are in the table
	const window, quotaTenant, quotaQueries, pastTenant = 2, 1, 1, 4
	grid := func(packed bool) protocol.Config {
		cfg := protocol.DefaultConfig(users)
		cfg.Classes, cfg.Kappa, cfg.Packing = 4, 24, packed
		return cfg
	}
	// A quota half-way between the ε of quotaQueries and quotaQueries+1
	// queries' spend.
	cost, err := dp.QuerySpend(grid(false).Sigma1, grid(false).Sigma2, true, true)
	if err != nil {
		f.Fatal(err)
	}
	opts := ServeOptions{MaxInFlight: known + window} // the table's queries are in flight too
	// Queries known..fresh-1 resolved in order, granted to pastTenant with
	// nonce = query ID; the first two have left the replay window again, so
	// it holds [oldest, fresh), and admissions start at the even query ID
	// fresh, which the fake S2 acks.
	forgotten, fresh := known, known+opts.replayWindow()+2
	oldest := fresh - opts.replayWindow()
	pastLabel := func(qid int) int64 { return int64(qid % 4) }
	epsOf := func(n int) float64 {
		var a dp.Accountant
		a.Add(dp.Spend{Coefficient: float64(n) * cost.Coefficient})
		eps, _, err := a.Epsilon(opts.delta())
		if err != nil {
			f.Fatal(err)
		}
		return eps
	}
	opts.Tenants = map[int64]float64{quotaTenant: (epsOf(quotaQueries) + epsOf(quotaQueries+1)) / 2}
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
	admit := func(tenant, nonce int64) *transport.Message { return ctrl(ctrlAdmitRequest, tenant, nonce) }
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
			{admit(3, 99), ctrl(ctrlResultWait, 1), ctrl(ctrlResultWait, 42), submit(1, 1, 9)},
			{admit(quotaTenant, 10), submit(0, fresh, 5), ctrl(ctrlUploadDone, 2)}, // a grant, then its upload
			{admit(quotaTenant, 10), admit(quotaTenant, 10), admit(3, 11)},         // a replayed nonce, then a refused announce
			{admit(2, 1), admit(2, 2), admit(2, 3), admit(2, 4), admit(3, 1)},      // the window fills: overloaded
			{admit(quotaTenant, 1), admit(quotaTenant, 2)},                         // the budget runs out
			{admit(3, 1), admit(quotaTenant, 1), admit(quotaTenant, 2)},            // a refused announce hands its reservation back
			{ctrl(ctrlAdmitRequest, 3)},                                            // short admit
			{ctrl(ctrlResultWait)},                                                 // short result wait
			{ctrl()},                                                               // no code at all
			{ctrl(ctrlServeAnnounce, 0)},                                           // a code clients do not own
			{submit(0, 0, 5), wrongWidth},                                          // the other grammar, or a bad layout
			{submit(0, 0, 5), {Kind: transport.KindBatch, Flags: []int64{1}}},
			// A resolved query's grant and result replayed from the window, a
			// forgotten one's past it.
			{admit(pastTenant, 42), ctrl(ctrlResultWait, 42), ctrl(ctrlResultWait, int64(forgotten)), admit(pastTenant, int64(forgotten))},
			// Uploads for a resolved and a forgotten query; a result wait for
			// one never granted.
			{submit(0, 42, 5), submit(0, forgotten, 5), ctrl(ctrlResultWait, int64(fresh+5))},
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
		for rest := data; len(msgs) < 32; {
			m, n, err := transport.DecodeMessage(rest)
			if err != nil {
				break
			}
			msgs = append(msgs, m)
			rest = rest[n:]
		}
		// A result wait for a query this sequence's own admissions could
		// grant would block until that query resolves, which it never does
		// here: drop it.
		isAdmit := func(m *transport.Message) bool {
			return m.Kind == transport.KindControl && len(m.Flags) >= 3 && m.Flags[0] == ctrlAdmitRequest
		}
		grantable := int64(fresh)
		for _, m := range msgs {
			if isAdmit(m) {
				grantable++
			}
		}
		kept := msgs[:0]
		for _, m := range msgs {
			if m.Kind == transport.KindControl && len(m.Flags) >= 2 && m.Flags[0] == ctrlResultWait && m.Flags[1] >= int64(fresh) && m.Flags[1] < grantable {
				continue
			}
			kept = append(kept, m)
		}
		msgs = kept

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := grid(packed)
		st := admissionState(ctx, t, cfg, opts, func(qid, _ int64) bool { return qid%2 == 0 })
		st.nextQID = fresh
		for qid := 0; qid < known; qid++ {
			q := &serveQuery{qid: qid, col: newCollector(cfg, nil), done: make(chan struct{})}
			q.res = InstanceResult{Instance: qid, Outcome: protocol.Outcome{Label: -1}}
			close(q.done) // result waits answer at once
			st.queries[qid] = q
		}
		for qid := known; qid < fresh; qid++ {
			key := grantKey{tenant: pastTenant, nonce: int64(qid)}
			q := &serveQuery{qid: qid, tenant: pastTenant, grant: &key, done: make(chan struct{}), res: InstanceResult{Instance: qid,
				Outcome: protocol.Outcome{Consensus: true, Label: int(pastLabel(qid))}, Attempts: 1}}
			close(q.done)
			st.rememberLocked(q)
		}

		// The submissions the sequence names, the admissions it asks for and
		// how many replies it earns.
		type named struct {
			user, qid int
			records   bool // the frame's layout fits the grid
		}
		var subs []named
		var asks []grantKey
		replies := 0
		for _, m := range msgs {
			if m.Kind == transport.KindControl {
				switch {
				case isAdmit(m):
					asks = append(asks, grantKey{tenant: m.Flags[1], nonce: m.Flags[2]})
					replies++
				case len(m.Flags) >= 1 && m.Flags[0] == ctrlUploadDone,
					len(m.Flags) >= 2 && m.Flags[0] == ctrlResultWait:
					replies++
				}
				continue
			}
			user, qid, _, err := ingest.DecodeHalf(m)
			layoutOK := true
			if packed {
				var classes, width int
				user, qid, classes, width, _, err = ingest.DecodePackedHalf(m)
				layoutOK = classes == cfg.Classes && width == cfg.PackedWidth()
			}
			if err == nil && user >= 0 && user < users { // identity is checked before the query is looked up
				subs = append(subs, named{user, qid, layoutOK})
			}
		}

		before := obs.Default.CounterValue("privconsensus_submissions_rejected_total", obs.L("reason", "unknown-query"))
		user, server := transport.Pair()
		served := make(chan error, 1)
		go func() {
			err := st.routes(nil).user(ctx, server)
			server.Close() // as the accept loop does: unblocks the client side
			served <- err
		}()
		var admitReplies, resultReplies [][]int64
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for got := 0; got < replies; got++ {
				m, err := user.Recv(ctx)
				if err != nil {
					return
				}
				if len(m.Flags) >= 4 && m.Flags[0] == ctrlAdmitReply {
					admitReplies = append(admitReplies, m.Flags[1:4])
				}
				if len(m.Flags) >= 5 && m.Flags[0] == ctrlResultReply {
					resultReplies = append(resultReplies, m.Flags[1:5])
				}
				st.mu.Lock()
				inflight := len(st.queries) - known
				st.mu.Unlock()
				if inflight > window {
					t.Errorf("%d queries in flight, window %d", inflight, window)
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

		// One grant per (tenant, nonce), replayed as granted, and no query
		// granted twice.
		grantOf := map[grantKey]int64{}
		keyOf := map[int64]grantKey{}
		for i, r := range admitReplies {
			k := asks[i]
			if prev, ok := grantOf[k]; ok && (r[0] != admitOK || r[1] != prev) {
				t.Fatalf("(tenant %d, nonce %d) was granted query %d, then answered status %d query %d", k.tenant, k.nonce, prev, r[0], r[1])
			}
			inWindow := k.tenant == pastTenant && k.nonce >= int64(oldest) && k.nonce < int64(fresh)
			if inWindow && (r[0] != admitOK || r[1] != k.nonce) {
				t.Fatalf("replayed grant (tenant %d, nonce %d) of a resolved query answered status %d query %d", k.tenant, k.nonce, r[0], r[1])
			}
			if r[0] != admitOK {
				continue
			}
			if !inWindow && r[1] < int64(fresh) {
				t.Fatalf("(tenant %d, nonce %d) was granted query %d, which resolved before the connection", k.tenant, k.nonce, r[1])
			}
			if prev, ok := keyOf[r[1]]; ok && prev != k {
				t.Fatalf("query %d granted to %+v and to %+v", r[1], prev, k)
			}
			grantOf[k], keyOf[r[1]] = r[1], k
		}

		// Result waits: the table's queries have resolved without consensus,
		// the window's with their label; anything else is unknown.
		for _, r := range resultReplies {
			qid := r[0]
			want := []int64{qid, resultUnknown, -1, 0}
			switch {
			case qid >= 0 && qid < known:
				want = []int64{qid, resultNoConsensus, -1, 0}
			case qid >= int64(oldest) && qid < int64(fresh):
				want = []int64{qid, resultConsensus, pastLabel(int(qid)), 1}
			}
			if !slices.Equal(r, want) {
				t.Fatalf("result wait for query %d answered %v, want %v", qid, r, want)
			}
		}

		// Cells only where a frame named both the user and a live query.
		allowed := map[int]*big.Int{}
		unknown, ambiguous := 0, 0
		for _, sub := range subs {
			qid := sub.qid
			switch _, live := st.queries[qid]; {
			case !live:
				unknown++ // never existed while the connection ran
			case qid >= known:
				ambiguous++ // unknown-query if it arrived before its grant
			}
			if sub.records {
				if allowed[qid] == nil {
					allowed[qid] = new(big.Int)
				}
				allowed[qid].SetBit(allowed[qid], sub.user, 1)
			}
		}
		live := 0
		for qid, q := range st.queries {
			q.col.mu.Lock()
			owed, covered := q.col.owed, new(big.Int).Set(q.col.Covered())
			q.col.mu.Unlock()
			if owed != 0 {
				t.Fatalf("query %d still owes %d acks after the connection ended", qid, owed)
			}
			ok := allowed[qid]
			if ok == nil {
				ok = new(big.Int)
			}
			if extra := new(big.Int).AndNot(covered, ok); extra.Sign() != 0 {
				t.Fatalf("query %d recorded cells %b no frame named (allowed %b)", qid, covered, ok)
			}
			if q.tenant == quotaTenant && qid >= known {
				live++
			}
		}
		after := obs.Default.CounterValue("privconsensus_submissions_rejected_total", obs.L("reason", "unknown-query"))
		if got := int(after - before); err == nil && (got < unknown || got > unknown+ambiguous) {
			t.Fatalf("%d frames named a query that never existed (%d more a granted one), %d unknown-query rejections counted", unknown, ambiguous, got)
		}

		// The ledger holds exactly the live grants' reservations.
		left := 0
		for left <= quotaQueries && st.ledger.Reserve(quotaTenant, st.cost) == nil {
			left++
		}
		if left != quotaQueries-live {
			t.Fatalf("tenant %d can still reserve %d queries with %d live, want %d", quotaTenant, left, live, quotaQueries-live)
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
		for rest := data; len(msgs) < 32; {
			m, n, err := transport.DecodeMessage(rest)
			if err != nil {
				break
			}
			msgs = append(msgs, m)
			rest = rest[n:]
		}
		st := &serveS2{
			s:          &serverSetup{cfg: cfg, trace: newTraceState()},
			files:      make([]*keystore.S2File, 2),
			epochs:     map[int]*s2Epoch{0: {}},
			retired:    map[int]bool{1: true},
			wantRetire: map[int]bool{},
			queries:    map[int]*s2Query{},
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
		if drains != wantDrains {
			t.Fatalf("drain callback ran %d times, want %d", drains, wantDrains)
		}
		if len(st.queries) != len(registered) {
			t.Fatalf("%d queries registered, want %d", len(st.queries), len(registered))
		}
	})
}
