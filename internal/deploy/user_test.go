package deploy

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// TestSubmitVotesServerUnreachable: a resilient upload against a dead
// address must exhaust its retry budget and return a descriptive error
// instead of hanging.
func TestSubmitVotesServerUnreachable(t *testing.T) {
	if testing.Short() {
		t.Skip("key generation is slow in -short mode")
	}
	_, _, pubFile, cfg := testSetup(t, 2)

	// Bind a port, then free it, so the dial is refused instead of hanging.
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr()
	l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err = SubmitVotes(ctx, pubFile, UserOptions{
		User:           0,
		S1Addr:         deadAddr,
		S2Addr:         deadAddr,
		Seed:           801,
		MaxRetries:     2,
		Backoff:        time.Millisecond,
		AttemptTimeout: 2 * time.Second,
	}, [][]float64{oneHot(cfg.Classes, 0)})
	if err == nil {
		t.Fatal("expected upload failure against a dead server")
	}
	if !strings.Contains(err.Error(), "upload to S1") {
		t.Errorf("error %q does not name the target server", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error %q does not report the exhausted budget", err)
	}
}

// TestSubmitVotesReconnectMidUpload: the server kills the first connection
// after accepting one submission frame; the resilient client must reconnect,
// replay the whole upload, and the collector must end up with exactly one
// copy per (user, instance) cell despite the replayed duplicate.
func TestSubmitVotesReconnectMidUpload(t *testing.T) {
	if testing.Short() {
		t.Skip("key generation is slow in -short mode")
	}
	_, _, pubFile, cfg := testSetup(t, 2)
	const instances = 3

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Flaky S1: first connection ingests one frame then resets; the second
	// connection is served normally.
	l1, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()
	oneUser := cfg
	oneUser.Users = 1
	col1 := make([]*collector, instances)
	col2 := make([]*collector, instances)
	for i := range col1 {
		col1[i], col2[i] = newCollector(oneUser, nil), newCollector(oneUser, nil)
	}
	s1Err := make(chan error, 1)
	go func() {
		s1Err <- func() error {
			conn, err := l1.Accept()
			if err != nil {
				return err
			}
			if _, err := recvHello(ctx, conn); err != nil {
				conn.Close()
				return err
			}
			msg, err := conn.Recv(ctx)
			if err != nil {
				conn.Close()
				return err
			}
			// Commit the first frame so the replay really duplicates it.
			f, err := ingest.ConfigRules(oneUser).UserFrame(msg)
			if err != nil {
				conn.Close()
				return err
			}
			if err := col1[f.Instance].add(f); err != nil {
				conn.Close()
				return err
			}
			conn.Close() // simulated mid-upload reset

			conn, err = l1.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			if _, err := recvHello(ctx, conn); err != nil {
				return err
			}
			return serveGrid(ctx, conn, oneUser, col1...)
		}()
	}()

	// Well-behaved S2.
	l2, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	go func() {
		for {
			conn, err := l2.Accept()
			if err != nil {
				return
			}
			go func(c transport.Conn) {
				defer c.Close()
				if _, err := recvHello(ctx, c); err != nil {
					return
				}
				_ = serveGrid(ctx, c, oneUser, col2...)
			}(conn)
		}
	}()

	votes := make([][]float64, instances)
	for i := range votes {
		votes[i] = oneHot(cfg.Classes, 2)
	}
	if err := SubmitVotes(ctx, pubFile, UserOptions{
		User:           0,
		S1Addr:         l1.Addr(),
		S2Addr:         l2.Addr(),
		Seed:           802,
		MaxRetries:     3,
		Backoff:        time.Millisecond,
		AttemptTimeout: 10 * time.Second,
	}, votes); err != nil {
		t.Fatalf("resilient upload did not survive the mid-upload reset: %v", err)
	}
	if err := <-s1Err; err != nil {
		t.Fatalf("flaky S1 stub: %v", err)
	}

	// Every cell filled exactly once: add() rejects duplicates, so full
	// collectors after a replay prove the dedup path absorbed the repeats.
	wctx, wcancel := context.WithTimeout(ctx, 5*time.Second)
	defer wcancel()
	for i := 0; i < instances; i++ {
		if err := col1[i].wait(wctx, time.Now(), 0, "s1"); err != nil {
			t.Fatalf("S1 collector %d incomplete after replay: %v", i, err)
		}
		if err := col2[i].wait(wctx, time.Now(), 0, "s2"); err != nil {
			t.Fatalf("S2 collector %d incomplete: %v", i, err)
		}
		if got := ingest.Popcount(col1[i].bitmap()); got != 1 {
			t.Errorf("S1 instance %d has %d submissions, want 1", i, got)
		}
	}
}

// TestSubmitVotesCancelWhileAwaitingAck: the server accepts the upload but
// never acks, and the caller cancels mid-wait. The client maps its context
// deadline onto connection I/O only at call start, so without the
// close-on-cancel hook the attempt would sit in the ack read until the
// attempt timeout; cancellation must instead surface promptly.
func TestSubmitVotesCancelWhileAwaitingAck(t *testing.T) {
	if testing.Short() {
		t.Skip("key generation is slow in -short mode")
	}
	_, _, pubFile, cfg := testSetup(t, 2)

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c transport.Conn) {
				// Drain everything the client sends, ack nothing.
				for {
					if _, err := c.Recv(context.Background()); err != nil {
						c.Close()
						return
					}
				}
			}(conn)
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(200*time.Millisecond, cancel)
	start := time.Now()
	err = SubmitVotes(ctx, pubFile, UserOptions{
		User:           0,
		S1Addr:         l.Addr(),
		S2Addr:         l.Addr(),
		Seed:           803,
		MaxRetries:     2,
		Backoff:        time.Millisecond,
		AttemptTimeout: time.Minute,
	}, [][]float64{oneHot(cfg.Classes, 0)})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected an error from the cancelled upload")
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled upload took %v; cancellation did not unblock the ack wait", elapsed)
	}
}
