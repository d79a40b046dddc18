package transport

import (
	"bytes"
	"context"
	"math/big"
	"testing"
	"testing/quick"
	"time"
)

func msgOf(kind MessageKind, flags []int64, vals ...int64) *Message {
	m := &Message{Kind: kind, Flags: flags}
	for _, v := range vals {
		m.Values = append(m.Values, big.NewInt(v))
	}
	return m
}

func sameMessage(a, b *Message) bool {
	if a.Kind != b.Kind || len(a.Flags) != len(b.Flags) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Flags {
		if a.Flags[i] != b.Flags[i] {
			return false
		}
	}
	for i := range a.Values {
		if a.Values[i].Cmp(b.Values[i]) != 0 {
			return false
		}
	}
	return true
}

func TestCodecRoundTrip(t *testing.T) {
	msgs := []*Message{
		msgOf(KindShares, nil, 1, 2, 3),
		msgOf(KindResult, []int64{1, -7}, -100, 0, 1<<62),
		{Kind: KindControl},
		msgOf(KindBits, []int64{0}, 0),
	}
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("WriteMessage: %v", err)
		}
		if buf.Len() != EncodedSize(m) {
			t.Errorf("EncodedSize = %d, wrote %d bytes", EncodedSize(m), buf.Len())
		}
		got, n, err := DecodeMessage(buf.Bytes())
		if err != nil || n != buf.Len() {
			t.Fatalf("DecodeMessage: %d of %d bytes, %v", n, buf.Len(), err)
		}
		if !sameMessage(m, got) {
			t.Errorf("round trip mismatch: %+v vs %+v", m, got)
		}
	}
}

func TestCodecRoundTripQuick(t *testing.T) {
	f := func(kind uint8, flags []int64, raw [][]byte) bool {
		m := &Message{Kind: MessageKind(kind), Flags: flags}
		for _, rb := range raw {
			v := new(big.Int).SetBytes(rb)
			if len(rb) > 0 && rb[0]&1 == 1 {
				v.Neg(v)
			}
			m.Values = append(m.Values, v)
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			return false
		}
		got, n, err := DecodeMessage(buf.Bytes())
		if err != nil || n != buf.Len() {
			return false
		}
		return sameMessage(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRejectsNilValue(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Kind: KindShares, Values: []*big.Int{nil}}); err == nil {
		t.Fatal("expected error for nil value")
	}
	if err := WriteMessage(&buf, nil); err == nil {
		t.Fatal("expected error for nil message")
	}
}

func TestCodecRejectsTruncatedFrames(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, msgOf(KindShares, []int64{5}, 42, 43)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := DecodeMessage(full[:cut]); err == nil {
			t.Fatalf("expected error reading frame truncated at %d/%d bytes", cut, len(full))
		}
	}
}

func TestCodecRejectsOversizeDeclarations(t *testing.T) {
	// Hand-craft a header declaring an absurd flag count.
	frame := []byte{byte(KindShares), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := DecodeMessage(frame); err == nil {
		t.Fatal("expected error for oversize flag count")
	}
}

func TestMemPairExchange(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	ctx := context.Background()

	want := msgOf(KindPlainSeq, nil, 7, 8, 9)
	done := make(chan error, 1)
	go func() { done <- a.Send(ctx, want) }()
	got, err := b.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Send: %v", err)
	}
	if !sameMessage(want, got) {
		t.Errorf("message mismatch: %+v vs %+v", want, got)
	}
}

func TestMemPairOrdering(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	ctx := context.Background()
	const n = 20
	go func() {
		for i := 0; i < n; i++ {
			if err := a.Send(ctx, msgOf(KindControl, []int64{int64(i)})); err != nil {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		m, err := b.Recv(ctx)
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if m.Flags[0] != int64(i) {
			t.Fatalf("out of order: got %d want %d", m.Flags[0], i)
		}
	}
}

func TestMemPairCloseUnblocksRecv(t *testing.T) {
	a, b := Pair()
	errs := make(chan error, 1)
	go func() {
		_, err := b.Recv(context.Background())
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("expected error after peer close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock after close")
	}
}

func TestMemPairContextCancel(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Recv(ctx); err == nil {
		t.Fatal("expected context error")
	}
	// Fill the one-slot buffer, then a second send must respect cancel.
	if err := a.Send(context.Background(), msgOf(KindControl, nil)); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctx, msgOf(KindControl, nil)); err == nil {
		t.Fatal("expected context error on blocked send")
	}
}

func TestTCPExchange(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	type acceptResult struct {
		conn Conn
		err  error
	}
	accepted := make(chan acceptResult, 1)
	go func() {
		c, err := l.Accept()
		accepted <- acceptResult{c, err}
	}()

	client, err := Dial(ctx, l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	res := <-accepted
	if res.err != nil {
		t.Fatalf("Accept: %v", res.err)
	}
	server := res.conn
	defer server.Close()

	want := msgOf(KindCipherSeq, []int64{3}, 1<<40, -9, 0)
	if err := client.Send(ctx, want); err != nil {
		t.Fatalf("client send: %v", err)
	}
	got, err := server.Recv(ctx)
	if err != nil {
		t.Fatalf("server recv: %v", err)
	}
	if !sameMessage(want, got) {
		t.Errorf("TCP round trip mismatch")
	}

	// And the reverse direction.
	if err := server.Send(ctx, msgOf(KindResult, []int64{1})); err != nil {
		t.Fatalf("server send: %v", err)
	}
	back, err := client.Recv(ctx)
	if err != nil {
		t.Fatalf("client recv: %v", err)
	}
	if back.Kind != KindResult {
		t.Errorf("unexpected kind %v", back.Kind)
	}
}

func TestTCPContextDeadline(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			defer c.Close()
			time.Sleep(time.Second) // never send
		}
	}()
	ctx := context.Background()
	client, err := Dial(ctx, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := client.Recv(short); err == nil {
		t.Fatal("expected deadline error")
	}
}

func TestExpectKind(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	ctx := context.Background()
	go a.Send(ctx, msgOf(KindBits, nil, 1))
	if _, err := ExpectKind(ctx, b, KindResult); err == nil {
		t.Fatal("expected kind mismatch error")
	}
	go a.Send(ctx, msgOf(KindBits, nil, 1))
	if _, err := ExpectKind(ctx, b, KindBits); err != nil {
		t.Fatalf("ExpectKind: %v", err)
	}
}

func TestMeterAccounting(t *testing.T) {
	meter := NewMeter()
	a, b := Pair()
	ma := Metered(a, meter, "step1")
	mb := Metered(b, meter, "step1")
	defer ma.Close()
	defer mb.Close()
	ctx := context.Background()

	m := msgOf(KindShares, nil, 100, 200)
	// send runs Send beside the Recv that unblocks it and returns once
	// Send has returned, so the meter holds both sides' records.
	send := func() {
		t.Helper()
		sent := make(chan error, 1)
		go func() { sent <- ma.Send(ctx, m) }()
		if _, err := mb.Recv(ctx); err != nil {
			t.Fatal(err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	}
	send()
	s, ok := meter.Step("step1")
	if !ok {
		t.Fatal("missing step1 stats")
	}
	wantBytes := int64(EncodedSize(m))
	if s.BytesSent != wantBytes || s.BytesReceived != wantBytes {
		t.Errorf("bytes sent/recv = %d/%d, want %d", s.BytesSent, s.BytesReceived, wantBytes)
	}
	if s.MsgsSent != 1 || s.MsgsReceived != 1 {
		t.Errorf("msgs sent/recv = %d/%d, want 1/1", s.MsgsSent, s.MsgsReceived)
	}

	ma.SetStep("step2")
	send()
	if _, ok := meter.Step("step2"); !ok {
		t.Error("SetStep did not switch attribution")
	}

	meter.RecordElapsed("timed", time.Millisecond)
	ts, _ := meter.Step("timed")
	if ts.Elapsed != time.Millisecond {
		t.Errorf("RecordElapsed recorded %v, want 1ms", ts.Elapsed)
	}

	snap := meter.Snapshot()
	if len(snap) != 3 {
		t.Errorf("expected 3 steps in snapshot, got %d", len(snap))
	}
}
