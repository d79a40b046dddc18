package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

func TestParseFaultSpec(t *testing.T) {
	spec, err := ParseFaultSpec("seed=7,reset=0.03,stall=0.01,partial=0.01,delay=0.05,stall-ms=40,delay-ms=5,max=25")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := FaultSpec{
		Seed: 7, Reset: 0.03, Stall: 0.01, Partial: 0.01, Delay: 0.05,
		StallFor: 40 * time.Millisecond, DelayFor: 5 * time.Millisecond, Max: 25,
	}
	if spec != want {
		t.Fatalf("parsed %+v, want %+v", spec, want)
	}
	if !spec.Enabled() {
		t.Fatal("spec should be enabled")
	}

	empty, err := ParseFaultSpec("")
	if err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	if empty.Enabled() {
		t.Fatal("empty spec should be disabled")
	}
}

func TestParseFaultSpecRejects(t *testing.T) {
	for _, bad := range []string{
		"reset",               // not key=value
		"bogus=1",             // unknown key
		"reset=2",             // probability out of range
		"reset=-0.1",          // negative probability
		"reset=NaN",           // NaN probability
		"reset=0.9,stall=0.9", // probabilities sum > 1
		"stall-ms=-5",         // negative duration
		"max=-1",              // negative budget
		"seed=abc",            // non-integer
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("ParseFaultSpec(%q) succeeded, want error", bad)
		}
	}
}

func TestFaultSpecStringRoundTrip(t *testing.T) {
	spec := FaultSpec{Seed: -3, Reset: 0.125, Delay: 0.5, DelayFor: 7 * time.Millisecond, Max: 9}
	back, err := ParseFaultSpec(spec.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", spec.String(), err)
	}
	if back != spec {
		t.Fatalf("round trip %q: got %+v, want %+v", spec.String(), back, spec)
	}
}

// pipeWithDrain returns a net.Pipe endpoint whose peer continuously drains
// writes, so Write never blocks on the synchronous pipe.
func pipeWithDrain(t *testing.T) net.Conn {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	go func() {
		buf := make([]byte, 1024)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	return a
}

func TestFaultBudgetBounds(t *testing.T) {
	inj := NewFaultInjector(FaultSpec{Seed: 1, Stall: 1, StallFor: time.Millisecond, Max: 3})
	c := inj.WrapNetConn(pipeWithDrain(t))
	for i := 0; i < 10; i++ {
		if _, err := c.Write([]byte("x")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if got := inj.injected.Load(); got != 3 {
		t.Fatalf("injected %d faults, want exactly the budget of 3", got)
	}
}

func TestFaultReset(t *testing.T) {
	inj := NewFaultInjector(FaultSpec{Seed: 1, Reset: 1, Max: 1})
	c := inj.WrapNetConn(pipeWithDrain(t))
	_, err := c.Write([]byte("x"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("write error = %v, want ErrInjected", err)
	}
	if !IsRetryable(err) {
		t.Fatal("injected reset should be retryable")
	}
	// Budget spent: the next op hits the (now closed) underlying conn.
	if _, err := c.Write([]byte("x")); errors.Is(err, ErrInjected) {
		t.Fatalf("second write re-injected past budget: %v", err)
	}
}

func TestFaultPartialWrite(t *testing.T) {
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	got := make(chan int, 1)
	go func() {
		n := 0
		buf := make([]byte, 256)
		for {
			m, err := b.Read(buf)
			n += m
			if err != nil {
				got <- n
				return
			}
		}
	}()
	inj := NewFaultInjector(FaultSpec{Seed: 4, Partial: 1, Max: 1})
	c := inj.WrapNetConn(a)
	payload := make([]byte, 100)
	n, err := c.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("write error = %v, want ErrInjected", err)
	}
	if n >= len(payload) {
		t.Fatalf("partial write reported %d of %d bytes", n, len(payload))
	}
	if received := <-got; received != n {
		t.Fatalf("peer saw %d bytes, writer reported %d", received, n)
	}
}

func TestFaultScheduleDeterministic(t *testing.T) {
	run := func() int64 {
		inj := NewFaultInjector(FaultSpec{Seed: 42, Stall: 0.3, Delay: 0.3, StallFor: time.Microsecond, DelayFor: time.Microsecond})
		c := inj.WrapNetConn(pipeWithDrain(t))
		for i := 0; i < 50; i++ {
			if _, err := c.Write([]byte("x")); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		return inj.injected.Load()
	}
	first, second := run(), run()
	if first != second || first == 0 {
		t.Fatalf("same seed injected %d then %d faults; want equal and nonzero", first, second)
	}
}

func TestWrapNetConnDisabled(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var nilInj *FaultInjector
	if got := nilInj.WrapNetConn(a); got != a {
		t.Fatal("nil injector must return the conn unchanged")
	}
	if got := NewFaultInjector(FaultSpec{Seed: 9}).WrapNetConn(a); got != a {
		t.Fatal("disabled spec must return the conn unchanged")
	}
}

func TestListenerFaultWrapping(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	l.SetFaults(NewFaultInjector(FaultSpec{Seed: 2, Reset: 1, Max: 1}))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	dialErr := make(chan error, 1)
	go func() {
		c, err := Dial(ctx, l.Addr())
		if err == nil {
			defer c.Close()
			err = c.Send(ctx, &Message{Kind: KindControl, Flags: []int64{1}})
		}
		dialErr <- err
	}()
	sc, err := l.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer sc.Close()
	if _, err := sc.Recv(ctx); !errors.Is(err, ErrInjected) {
		t.Fatalf("recv on fault-wrapped conn = %v, want ErrInjected", err)
	}
	<-dialErr // client may or may not see the reset; just reap it
}

func TestIsRetryableClassification(t *testing.T) {
	retryable := []error{
		ErrInjected,
		ErrClosed,
		io.EOF,
		io.ErrUnexpectedEOF,
		context.DeadlineExceeded,
		syscall.ECONNRESET,
		syscall.ECONNREFUSED,
		syscall.EPIPE,
		&net.OpError{Op: "read", Err: errors.New("boom")},
	}
	for _, err := range retryable {
		if !IsRetryable(err) {
			t.Errorf("IsRetryable(%v) = false, want true", err)
		}
	}
	fatal := []error{
		nil,
		context.Canceled,
		errors.New("transport: expected bits message, got result"),
		MarkFatal(syscall.ECONNRESET), // fatal marker beats a retryable cause
	}
	for _, err := range fatal {
		if IsRetryable(err) {
			t.Errorf("IsRetryable(%v) = true, want false", err)
		}
	}
}

func TestMarkFatalPreservesMessage(t *testing.T) {
	base := errors.New("protocol mismatch")
	err := MarkFatal(base)
	if err.Error() != base.Error() {
		t.Fatalf("MarkFatal changed message: %q", err.Error())
	}
	if !errors.Is(err, base) {
		t.Fatal("MarkFatal must wrap the original error")
	}
	if MarkFatal(nil) != nil {
		t.Fatal("MarkFatal(nil) must be nil")
	}
}

func TestExpectKindMismatchIsFatal(t *testing.T) {
	a, b := Pair()
	defer a.Close()
	defer b.Close()
	ctx := context.Background()
	if err := a.Send(ctx, &Message{Kind: KindResult}); err != nil {
		t.Fatalf("send: %v", err)
	}
	_, err := ExpectKind(ctx, b, KindBits)
	if err == nil {
		t.Fatal("kind mismatch must error")
	}
	if IsRetryable(err) {
		t.Fatalf("kind mismatch must be fatal, got retryable: %v", err)
	}
}

func TestDialerRetriesThenFails(t *testing.T) {
	// Grab a port that refuses connections by closing a listener.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := l.Addr().String()
	l.Close()

	d := Dialer{Attempts: 3, Backoff: time.Millisecond, AttemptTimeout: time.Second, Seed: 5}
	start := time.Now()
	_, err = d.Dial(context.Background(), addr)
	if err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if !IsRetryable(err) {
		t.Fatalf("connection-refused should classify retryable: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial loop took %v; backoff not bounded", elapsed)
	}
}

func TestDialerSucceedsAfterListenerAppears(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	go func() {
		if c, err := l.Accept(); err == nil {
			defer c.Close()
			ctx := context.Background()
			if msg, err := c.Recv(ctx); err == nil {
				c.Send(ctx, msg)
			}
		}
	}()

	d := Dialer{Attempts: 2, Backoff: time.Millisecond, Seed: 3}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := d.Dial(ctx, l.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(ctx, &Message{Kind: KindControl, Flags: []int64{7}}); err != nil {
		t.Fatalf("send: %v", err)
	}
	echo, err := c.Recv(ctx)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if echo.Kind != KindControl || len(echo.Flags) != 1 || echo.Flags[0] != 7 {
		t.Fatalf("echo mismatch: %+v", echo)
	}
}

func TestDialerCtxCancel(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := l.Addr().String()
	l.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := Dialer{Attempts: 100, Backoff: time.Second}
	if _, err := d.Dial(ctx, addr); !errors.Is(err, context.Canceled) {
		t.Fatalf("dial with cancelled ctx = %v, want context.Canceled", err)
	}
}

func FuzzFaultSpec(f *testing.F) {
	for _, s := range []string{
		"",
		"seed=7,reset=0.03,stall=0.01,partial=0.01,delay=0.05,stall-ms=40,delay-ms=5,max=25",
		"stall=0.5,stall-ms=10",
		"delay=1",
		"partial=0.25,seed=-4",
		"reset=2",
		"bogus=1",
		"reset",
		"seed=,max=",
		"reset=0.9,stall=0.9",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseFaultSpec(s)
		if err != nil {
			return // invalid inputs must simply error, never panic
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseFaultSpec(%q) accepted an invalid spec: %v", s, err)
		}
		rendered := spec.String()
		back, err := ParseFaultSpec(rendered)
		if err != nil {
			t.Fatalf("String() %q of parsed %q does not reparse: %v", rendered, s, err)
		}
		if back != spec {
			t.Fatalf("round trip via %q: got %+v, want %+v", rendered, back, spec)
		}
	})
}
