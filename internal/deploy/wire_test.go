package deploy

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// peerTap is a frame-level proxy on the S1↔S2 link: S2 dials the tap, the tap
// dials S1, and every frame is recorded — before it is forwarded, so the
// record follows the protocol's causal order — as direction, kind,
// len(Flags), len(Values) and, for control frames, Flags[0].
type peerTap struct {
	l      *transport.Listener
	s1Addr string // where the tap forwards to
	// cutAfter, when > 0, severs the link for good once that many frames
	// have crossed it.
	cutAfter int

	mu     sync.Mutex
	frames []string
	// links holds the same records per tapped connection, in accept order,
	// and caps the capability bits of each connection's hello: S2 dials a
	// ctl link beside the protocol link.
	links [][]string
	caps  []int64
}

func startPeerTap(t *testing.T, ctx context.Context, s1Addr string, cutAfter int) *peerTap {
	t.Helper()
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &peerTap{l: l, s1Addr: s1Addr, cutAfter: cutAfter}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			down, err := l.Accept()
			if err != nil {
				return
			}
			up, err := transport.Dial(ctx, s1Addr)
			if err != nil {
				down.Close()
				continue
			}
			p.mu.Lock()
			link := len(p.links)
			p.links, p.caps = append(p.links, nil), append(p.caps, 0)
			p.mu.Unlock()
			go p.pump(ctx, "S2>S1", down, up, link)
			go p.pump(ctx, "S1>S2", up, down, link)
		}
	}()
	return p
}

// pump forwards one direction until either end fails, then closes both.
func (p *peerTap) pump(ctx context.Context, dir string, from, to transport.Conn, link int) {
	defer from.Close()
	defer to.Close()
	for {
		msg, err := from.Recv(ctx)
		if err != nil {
			return
		}
		if !p.record(dir, msg, link) {
			return
		}
		if err := to.Send(ctx, msg); err != nil {
			return
		}
	}
}

// record notes one frame; it reports false once the link is to be cut.
func (p *peerTap) record(dir string, msg *transport.Message, link int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cutAfter > 0 && len(p.frames) >= p.cutAfter {
		p.l.Close() // no reconnection either
		return false
	}
	shape := fmt.Sprintf("%s %v %d %d", dir, msg.Kind, len(msg.Flags), len(msg.Values))
	if msg.Kind == transport.KindControl && len(msg.Flags) > 0 {
		shape += fmt.Sprintf(" code=%d", msg.Flags[0])
	}
	p.frames = append(p.frames, shape)
	if len(p.links[link]) == 0 && len(msg.Flags) >= 2 {
		p.caps[link] = msg.Flags[1] // the hello opens every link
	}
	p.links[link] = append(p.links[link], shape)
	return true
}

// link returns the hello caps and the transcript of the one tapped link
// whose hello does (ctl) or does not carry capServeCtl.
func (p *peerTap) link(t *testing.T, ctl bool) (int64, []string) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	found := -1
	for i, caps := range p.caps {
		if (caps&capServeCtl != 0) != ctl {
			continue
		}
		if found >= 0 {
			t.Fatalf("S2 dialed more than one such link (ctl=%v): %v", ctl, p.caps)
		}
		found = i
	}
	if found < 0 {
		t.Fatalf("no tapped link with ctl=%v among the hellos %v", ctl, p.caps)
	}
	return p.caps[found], slices.Clone(p.links[found])
}

// tappedRun is one batch deployment of three users and two instances —
// instance 0 unanimous on class 2, instance 1 split three ways (no
// consensus at T = 50%) — whose peer links run through a peerTap.
type tappedRun struct {
	tap    *peerTap
	r1, r2 *Report
	e1, e2 error
}

func runTapped(t *testing.T, s1File *keystore.S1File, s2File *keystore.S2File, pub *keystore.PublicFile,
	o1, o2 ServerOptions, cutAfter int) tappedRun {
	t.Helper()
	const users, instances = 3, 2
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	type done struct {
		rep *Report
		err error
	}
	s1Ready, s2Ready := make(chan string, 1), make(chan string, 1)
	s1Done, s2Done := make(chan done, 1), make(chan done, 1)
	o1.ListenAddr, o1.Instances, o1.Seed, o1.Ready = "127.0.0.1:0", instances, 901, s1Ready
	go func() {
		rep, err := RunS1Report(ctx, s1File, o1)
		s1Done <- done{rep, err}
	}()
	s1Addr := <-s1Ready
	tap := startPeerTap(t, ctx, s1Addr, cutAfter)
	o2.ListenAddr, o2.PeerAddr, o2.Instances, o2.Seed, o2.Ready = "127.0.0.1:0", tap.l.Addr(), instances, 902, s2Ready
	go func() {
		rep, err := RunS2Report(ctx, s2File, o2)
		s2Done <- done{rep, err}
	}()
	s2Addr := <-s2Ready

	classes := pub.Config.Classes
	for u := 0; u < users; u++ {
		votes := [][]float64{oneHot(classes, 2), oneHot(classes, u%classes)}
		if err := SubmitVotes(ctx, pub, UserOptions{User: u, S1Addr: s1Addr, S2Addr: s2Addr, Seed: int64(910 + u)}, votes); err != nil {
			t.Fatalf("user %d: %v", u, err)
		}
	}
	d1, d2 := <-s1Done, <-s2Done
	return tappedRun{tap: tap, r1: d1.rep, r2: d2.rep, e1: d1.err, e2: d2.err}
}

// goldenTranscript is the protocol link of a tappedRun, frame by frame: the
// handshake (hello with the wire version, trace context), then per instance
// begin, the participant exchange and Alg. 5, then end. K = 4 classes, so a
// comparison phase is two bracket levels of three batch frames; instance 1
// stops after the threshold check. Packed runs add the two-frame blinded
// unpack before each Blind-and-Permute and fold every crossing. A change here
// is a change of the wire: bump wireVersion with it.
func goldenTranscript(packed bool) []string {
	// A K = 4 sequence crossing the link for its key owner to read: one
	// ciphertext per class, or folded two slots to a 64-bit plaintext.
	cross := 4
	if packed {
		cross = 2
	}
	var (
		handshake = []string{
			"S2>S1 control 3 0 code=2",   // hello: party, caps, wire version
			"S1>S2 control 2 0 code=106", // trace context
		}
		begin = []string{
			"S1>S2 control 3 0 code=100", // begin: instance, attempt
			"S1>S2 control 2 1 code=104", // participants: bitmap
			"S2>S1 control 2 1 code=105", // ack: agreed bitmap
		}
		// Blinded unpack of S2's half (packed only): n = nSeq·K slots.
		unpack = func(n int) []string {
			if !packed {
				return nil
			}
			return []string{
				fmt.Sprintf("S2>S1 cipher-seq 1 %d", n),
				fmt.Sprintf("S1>S2 cipher-seq 0 %d", n),
			}
		}
		// Blind-and-Permute over nSeq sequences of K = 4.
		blindPermute = func(nSeq int) []string {
			return []string{
				fmt.Sprintf("S1>S2 cipher-seq 1 %d", 4*nSeq),
				fmt.Sprintf("S2>S1 plain-seq 0 %d", 4*nSeq),
				fmt.Sprintf("S1>S2 cipher-seq 0 %d", nSeq),
				fmt.Sprintf("S2>S1 cipher-seq 0 %d", (cross+4)*nSeq), // folded sequences, then E[-r3] per class
				fmt.Sprintf("S1>S2 cipher-seq 0 %d", cross*nSeq),
			}
		}
		// One batched DGK exchange of n comparisons at L = 50 bits.
		compare = func(n int) []string {
			return []string{
				fmt.Sprintf("S2>S1 batch %d %d", 2+2*n, 50*n),
				fmt.Sprintf("S1>S2 batch %d %d", 2+2*n, 50*n),
				fmt.Sprintf("S2>S1 batch %d 0", 2+3*n),
			}
		}
		argmax      = slices.Concat(compare(2), compare(1)) // bracket levels of 4 and 2
		restoration = []string{
			"S2>S1 cipher-seq 0 4", fmt.Sprintf("S1>S2 cipher-seq 0 %d", cross), "S2>S1 plain-seq 0 4",
			"S1>S2 cipher-seq 0 4", fmt.Sprintf("S2>S1 cipher-seq 0 %d", cross), "S1>S2 plain-seq 0 4",
			"S2>S1 result 1 0",
		}
		end = []string{"S1>S2 control 1 0 code=101"}
	)
	toThreshold := slices.Concat(begin, unpack(8), blindPermute(2), argmax, compare(4))
	return slices.Concat(handshake,
		toThreshold, unpack(4), blindPermute(1), argmax, restoration, // instance 0: consensus
		toThreshold, // instance 1: ⊥ at the threshold check
		end)
}

// goldenCtl is the ctl link of the same run: the handshake, one announce
// exchange per admitted query (a batch run pre-registers its queries on
// both servers and announces none), and the drain marker.
func goldenCtl(announced int) []string {
	ctl := []string{
		"S2>S1 control 3 0 code=2",   // hello: party, caps with capServeCtl, wire version
		"S1>S2 control 2 0 code=106", // trace context
	}
	for i := 0; i < announced; i++ {
		ctl = append(ctl, "S1>S2 control 4 0 code=124", "S2>S1 control 3 0 code=125") // announce: qid, epoch, tenant
	}
	return append(ctl, "S1>S2 control 2 0 code=130", "S2>S1 control 3 0 code=127") // drain
}

// checkTapped compares a tapped run's two links with the golden
// transcripts: the protocol link is the same in every run, the ctl link
// carries announced announces.
func checkTapped(t *testing.T, tap *peerTap, cfg protocol.Config, announced int) {
	t.Helper()
	for _, l := range []struct {
		ctl  bool
		caps int64
		want []string
	}{
		{false, peerCaps(cfg), goldenTranscript(cfg.Packing)},
		{true, peerCaps(cfg) | capServeCtl, goldenCtl(announced)},
	} {
		caps, got := tap.link(t, l.ctl)
		if caps != l.caps {
			t.Errorf("ctl=%v link hello caps = %d, want %d", l.ctl, caps, l.caps)
		}
		if !slices.Equal(got, l.want) {
			t.Errorf("ctl=%v link transcript is not the golden one (a wire change must bump wireVersion):\ngot:\n%s\nwant:\n%s",
				l.ctl, joinLines(got), joinLines(l.want))
		}
	}
}

// TestGoldenPeerTranscript pins the one S1↔S2 grammar: for a given packing
// mode the protocol-link transcript is the golden one whatever MaxRetries,
// Quorum, SubmitDeadline and JournalPath are — including when
// the two servers set them differently — and so are the labels. The serve
// rows run the same two queries through ServeS1/ServeS2 and a ServeClient:
// the protocol link and both hellos are identical to the batch rows, and
// the ctl link differs only by the two announces. Every run gets its own
// copy of the key files: S2 zeroizes its private keys in place on exit.
func TestGoldenPeerTranscript(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-endpoint deployment test is slow in -short mode")
	}
	s1File, s2File, pub, _ := testSetup(t, 3)
	dir := t.TempDir()
	journal := func(name string) string { return filepath.Join(dir, name) }
	policy := ServerOptions{Quorum: 3, SubmitDeadline: 30 * time.Second}
	variants := []struct {
		name   string
		o1, o2 ServerOptions
	}{
		{"defaults", ServerOptions{}, ServerOptions{}},
		{"retries", ServerOptions{MaxRetries: 2}, ServerOptions{MaxRetries: 2}},
		{"quorum+deadline", policy, policy},
		{"journals", ServerOptions{JournalPath: journal("a1.jsonl")}, ServerOptions{JournalPath: journal("a2.jsonl")}},
		{"mismatched budgets and journals",
			ServerOptions{MaxRetries: 0, JournalPath: journal("b1.jsonl")},
			ServerOptions{MaxRetries: 3}},
	}
	for _, packed := range []bool{false, true} {
		keys := func() (*keystore.S1File, *keystore.S2File, *keystore.PublicFile) {
			s1, s2, p := cloneFile(t, s1File), cloneFile(t, s2File), cloneFile(t, pub)
			s1.Config.Packing, s2.Config.Packing, p.Config.Packing = packed, packed, packed
			return s1, s2, p
		}
		for _, v := range variants {
			t.Run(fmt.Sprintf("packed=%v/%s", packed, v.name), func(t *testing.T) {
				s1, s2, p := keys()
				run := runTapped(t, s1, s2, p, v.o1, v.o2, 0)
				if run.e1 != nil || run.e2 != nil {
					t.Fatalf("servers failed: s1=%v s2=%v", run.e1, run.e2)
				}
				for i, wantOut := range []protocol.Outcome{
					{Consensus: true, Label: 2, Participants: 3},
					{Consensus: false, Label: -1, Participants: 3},
				} {
					a, b := run.r1.Results[i], run.r2.Results[i]
					if a.Err != nil || b.Err != nil || a.Outcome != wantOut || b.Outcome != wantOut {
						t.Errorf("instance %d: s1 %+v (%v), s2 %+v (%v), want %+v", i, a.Outcome, a.Err, b.Outcome, b.Err, wantOut)
					}
				}
				checkTapped(t, run.tap, s1.Config, 0)
			})
		}
		t.Run(fmt.Sprintf("packed=%v/serve", packed), func(t *testing.T) {
			s1, s2, p := keys()
			checkTapped(t, serveTapped(t, s1, s2, p), s1.Config, 2)
		})
	}
}

// serveTapped runs the tappedRun queries — three users, query 0 unanimous on
// class 2, query 1 split three ways — through a serve-mode pair whose S2
// dials S1 through a peerTap, and returns the tap.
func serveTapped(t *testing.T, s1File *keystore.S1File, s2File *keystore.S2File, pub *keystore.PublicFile) *peerTap {
	t.Helper()
	cfg := pub.Config
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	drain := make(chan struct{})
	s1Ready, s2Ready := make(chan string, 1), make(chan string, 1)
	s1Done, s2Done := make(chan error, 1), make(chan error, 1)
	base := ServerOptions{ListenAddr: "127.0.0.1:0", AttemptTimeout: 30 * time.Second}
	go func() {
		o := base
		o.Seed, o.Ready = 901, s1Ready
		_, err := ServeS1(ctx, []*keystore.S1File{s1File}, ServeOptions{ServerOptions: o, DrainCh: drain})
		s1Done <- err
	}()
	tap := startPeerTap(t, ctx, <-s1Ready, 0)
	go func() {
		o := base
		o.Seed, o.Ready, o.PeerAddr = 902, s2Ready, tap.l.Addr()
		_, err := ServeS2(ctx, []*keystore.S2File{s2File}, ServeOptions{ServerOptions: o})
		s2Done <- err
	}()
	s2Addr := <-s2Ready
	client, err := NewServeClient([]*keystore.PublicFile{pub}, ServeClientOptions{S1Addr: tap.s1Addr, S2Addr: s2Addr, Seed: 910})
	if err != nil {
		t.Fatal(err)
	}
	for q, vote := range []func(u int) int{func(int) int { return 2 }, func(u int) int { return u % cfg.Classes }} {
		votes := make([][]float64, cfg.Users)
		for u := range votes {
			votes[u] = oneHot(cfg.Classes, vote(u))
		}
		res, err := client.Do(ctx, votes)
		if err != nil || res.QID != q || res.Consensus != (q == 0) {
			t.Fatalf("serve query %d: %+v, %v", q, res, err)
		}
	}
	close(drain)
	if e1, e2 := <-s1Done, <-s2Done; e1 != nil || e2 != nil {
		t.Fatalf("serve servers failed: s1=%v s2=%v", e1, e2)
	}
	return tap
}

func joinLines(ss []string) string {
	out := ""
	for i, s := range ss {
		out += fmt.Sprintf("%3d  %s\n", i, s)
	}
	return out
}

// TestPeerRefusals: a peer hello naming another wire version (the previous
// one, or none, as a pre-version build sends) and a key file selecting the
// all-pairs reference are refused with a typed error before any frame is
// sent back.
func TestPeerRefusals(t *testing.T) {
	s1File, s2File, _, _ := testSetup(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for name, flags := range map[string][]int64{
		"other version":  {partyPeer, peerCaps(s1File.Config), wireVersion + 1},
		"version 2 peer": {partyPeer, peerCaps(s1File.Config), 2},
		"no version":     {partyPeer, peerCaps(s1File.Config)},
	} {
		t.Run(name, func(t *testing.T) {
			ready := make(chan string, 1)
			done := make(chan error, 1)
			go func() {
				_, err := RunS1Report(ctx, s1File, ServerOptions{ListenAddr: "127.0.0.1:0", Instances: 1, Ready: ready})
				done <- err
			}()
			conn, err := transport.Dial(ctx, <-ready)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := conn.Send(ctx, &transport.Message{Kind: transport.KindControl, Flags: flags}); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if !errors.Is(err, protocol.ErrPeerMismatch) {
					t.Errorf("S1 returned %v, want ErrPeerMismatch", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("S1 did not refuse the hello; it is still waiting")
			}
			if msg, err := conn.Recv(ctx); err == nil {
				t.Errorf("S1 answered the refused hello with a %v frame", msg.Kind)
			}
		})
	}

	t.Run("allpairs key file", func(t *testing.T) {
		s1, s2 := *s1File, *s2File
		s1.Config.ArgmaxStrategy, s2.Config.ArgmaxStrategy = protocol.StrategyAllPairs, protocol.StrategyAllPairs
		// Neither server gets as far as listening or dialing.
		if _, err := RunS1Report(ctx, &s1, ServerOptions{ListenAddr: "127.0.0.1:0", Instances: 1}); !errors.Is(err, protocol.ErrBadConfig) {
			t.Errorf("S1 returned %v, want ErrBadConfig", err)
		}
		if _, err := RunS2Report(ctx, &s2, ServerOptions{ListenAddr: "127.0.0.1:0", PeerAddr: "127.0.0.1:1", Instances: 1}); !errors.Is(err, protocol.ErrBadConfig) {
			t.Errorf("S2 returned %v, want ErrBadConfig", err)
		}
	})
}
