package ingest

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// testSide builds one relay pipeline over a fresh small Paillier key.
func testSide(t *testing.T, users, instances, classes, batch int) (*side, *paillier.PrivateKey) {
	t.Helper()
	sk, err := paillier.GenerateKey(rand.New(rand.NewSource(77)), 256)
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{opts: Options{
		ListenS1: "x", ListenS2: "x", UpstreamS1: "x", UpstreamS2: "x",
		RelayID: 7, Users: users, Instances: instances, Classes: classes,
		BatchSize: batch,
	}.withDefaults()}
	return newSide(r, "s1", sk.Public(), "x"), sk
}

// userFrame encodes a shape-valid submission frame.
func userFrame(t *testing.T, user, instance, classes int, val int64) *transport.Message {
	t.Helper()
	msg, err := EncodeHalf(user, instance, testHalf(classes, val))
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// rejectReason extracts the rejection reason, failing on any other error
// shape.
func rejectReason(t *testing.T, err error) string {
	t.Helper()
	var re *Rejection
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want a rejection", err)
	}
	return re.Reason
}

// ackStatus reads the status of a batch ack (-1: no ack).
func ackStatus(ack *transport.Message) int64 {
	if ack == nil {
		return -1
	}
	return ack.Flags[3]
}

func TestRelayValidationReasons(t *testing.T) {
	s, _ := testSide(t, 4, 2, 2, 3)
	cases := []struct {
		name   string
		msg    *transport.Message
		reason string
	}{
		{"unknown-user", userFrame(t, 9, 0, 2, 5), "unknown-user"},
		{"negative-user", userFrame(t, -1, 0, 2, 5), "unknown-user"},
		{"unknown-query", userFrame(t, 0, 5, 2, 5), "unknown-query"},
		{"bad-length", userFrame(t, 0, 0, 3, 5), "bad-length"},
	}
	for _, tc := range cases {
		b, err := s.addUser(tc.msg)
		if b != nil {
			t.Errorf("%s: sealed a batch from a hostile frame", tc.name)
		}
		if got := rejectReason(t, err); got != tc.reason {
			t.Errorf("%s: reason = %q, want %q", tc.name, got, tc.reason)
		}
	}
	// Out-of-ring: a ciphertext at N² exactly.
	big2 := testHalf(2, 1)
	big2.Votes[0] = &paillier.Ciphertext{C: new(big.Int).Set(s.pk.N2)}
	msg, err := EncodeHalf(0, 0, big2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.addUser(msg); rejectReason(t, err) != "out-of-ring" {
		t.Errorf("out-of-ring frame accepted: %v", err)
	}
	// Undecodable frame.
	if _, err := s.addUser(&transport.Message{Kind: transport.KindShares, Flags: []int64{1}}); rejectReason(t, err) != "bad-frame" {
		t.Errorf("undecodable frame reason: %v", err)
	}
}

func TestRelayUserDedup(t *testing.T) {
	s, _ := testSide(t, 4, 1, 2, 10)
	first := userFrame(t, 1, 0, 2, 5)
	if _, err := s.addUser(first); err != nil {
		t.Fatal(err)
	}
	// Byte-identical replay is tolerated, not re-counted.
	if _, err := s.addUser(userFrame(t, 1, 0, 2, 5)); err != errReplay {
		t.Errorf("replay err = %v, want errReplay", err)
	}
	if n := s.insts[0].open.n; n != 1 {
		t.Errorf("replay inflated the open batch to %d members", n)
	}
	// A conflicting resubmission is a duplicate rejection.
	if _, err := s.addUser(userFrame(t, 1, 0, 2, 6)); rejectReason(t, err) != "duplicate" {
		t.Errorf("conflicting resubmission: %v", err)
	}
}

// TestRelayBatchSealing proves the pre-sum: after BatchSize users the side
// seals a combined frame whose bitmap names exactly the members and whose
// ciphertexts are the homomorphic (modular product) sums of theirs.
func TestRelayBatchSealing(t *testing.T) {
	s, sk := testSide(t, 8, 1, 2, 3)
	pk := sk.Public()
	var halves []protocol.SubmissionHalf
	var b *sealed
	for u := 0; u < 3; u++ {
		h := testHalf(2, int64(u+2))
		halves = append(halves, h)
		msg, err := EncodeHalf(u, 0, h)
		if err != nil {
			t.Fatal(err)
		}
		b, err = s.addUser(msg)
		if err != nil {
			t.Fatal(err)
		}
		if u < 2 && b != nil {
			t.Fatalf("batch sealed early at user %d", u)
		}
	}
	if b == nil {
		t.Fatal("batch did not seal at BatchSize")
	}
	c, err := DecodeCombined(b.msg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Relay != 7 || c.Seq != 0 || c.Users() != 3 || c.Bitmap.Int64() != 0b111 {
		t.Errorf("combined frame = relay %d seq %d bitmap %v", c.Relay, c.Seq, c.Bitmap)
	}
	// Expected sum of class 0 votes: the ciphertext product mod N².
	want := halves[0].Votes[0]
	for _, h := range halves[1:] {
		want, err = pk.Add(want, h.Votes[0])
		if err != nil {
			t.Fatal(err)
		}
	}
	if c.Half.Votes[0].C.Cmp(want.C) != 0 {
		t.Error("pre-sum differs from the direct homomorphic sum")
	}
	// The side's open state is reset; the next user starts batch seq 1.
	if s.insts[0].open != nil {
		t.Error("open batch not cleared after sealing")
	}
}

func TestRelayChildBatchMergeAndDedup(t *testing.T) {
	s, _ := testSide(t, 8, 1, 2, 100)
	child := Combined{Relay: 3, Seq: 0, Instance: 0, Bitmap: big.NewInt(0b11), Half: testHalf(2, 5)}
	msg, err := EncodeCombined(child)
	if err != nil {
		t.Fatal(err)
	}
	if _, ack, err := s.addChild(msg); err != nil || ackStatus(ack) != BatchAccepted {
		t.Fatalf("child batch refused: %v (status %d)", err, ackStatus(ack))
	}
	if s.insts[0].open.n != 2 || s.insts[0].covered.Int64() != 0b11 {
		t.Errorf("merge state: n=%d covered=%v", s.insts[0].open.n, s.insts[0].covered)
	}
	// Byte-identical replay: acked accepted, not re-merged.
	if _, ack, err := s.addChild(msg); err != errReplay || ackStatus(ack) != BatchAccepted {
		t.Errorf("replay: err=%v status=%d", err, ackStatus(ack))
	}
	if s.insts[0].open.n != 2 {
		t.Error("replay re-merged the batch")
	}
	// Conflicting reuse of the same (relay, seq) identity.
	conflict, _ := EncodeCombined(Combined{Relay: 3, Seq: 0, Instance: 0, Bitmap: big.NewInt(0b100), Half: testHalf(2, 9)})
	if _, ack, err := s.addChild(conflict); rejectReason(t, err) != "duplicate" || ackStatus(ack) != BatchRejected {
		t.Errorf("conflicting identity: err=%v status=%d", err, ackStatus(ack))
	}
	// Overlapping membership under a fresh identity.
	overlap, _ := EncodeCombined(Combined{Relay: 3, Seq: 1, Instance: 0, Bitmap: big.NewInt(0b110), Half: testHalf(2, 9)})
	if _, ack, err := s.addChild(overlap); rejectReason(t, err) != "overlap" || ackStatus(ack) != BatchRejected {
		t.Errorf("overlapping batch: err=%v status=%d", err, ackStatus(ack))
	}
	// Bitmap naming users beyond the grid.
	wide, _ := EncodeCombined(Combined{Relay: 3, Seq: 2, Instance: 0, Bitmap: new(big.Int).Lsh(big.NewInt(1), 20), Half: testHalf(2, 9)})
	if _, _, err := s.addChild(wide); rejectReason(t, err) != "bad-bitmap" {
		t.Errorf("wide bitmap: %v", err)
	}
}

func TestRelayOptionValidation(t *testing.T) {
	sk, err := paillier.GenerateKey(rand.New(rand.NewSource(78)), 256)
	if err != nil {
		t.Fatal(err)
	}
	pk := sk.Public()
	good := Options{ListenS1: "a", ListenS2: "b", UpstreamS1: "c", UpstreamS2: "d",
		Users: 1, Instances: 1, Classes: 2, PK1: pk, PK2: pk}
	if err := good.withDefaults().validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	for name, mut := range map[string]func(*Options){
		"no-listen":   func(o *Options) { o.ListenS1 = "" },
		"no-upstream": func(o *Options) { o.UpstreamS2 = "" },
		"no-users":    func(o *Options) { o.Users = 0 },
		"no-keys":     func(o *Options) { o.PK1 = nil },
	} {
		o := good
		mut(&o)
		if err := o.withDefaults().validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
