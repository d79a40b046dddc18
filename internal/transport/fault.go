package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Fault injection and retry support for chaos testing and session
// resilience.
//
// A FaultInjector wraps raw net.Conns below the message framing layer and
// injects the failure modes a production deployment sees — connection
// resets, read/write stalls, partial writes, delayed frames — from a
// deterministic seeded schedule, so a chaos run is reproducible. The
// Dialer adds exponential backoff with jitter and per-attempt timeouts on
// top of plain Dial. IsRetryable classifies errors into retryable I/O
// failures vs fatal protocol mismatches for the retry loops in
// internal/deploy.

// ErrInjected marks an error produced by fault injection. Injected faults
// are always classified as retryable.
var ErrInjected = errors.New("transport: injected fault")

// Fault kinds, used as the metric label on faults_injected_total.
const (
	faultReset   = "reset"
	faultStall   = "stall"
	faultPartial = "partial"
	faultDelay   = "delay"
)

// FaultSpec configures a FaultInjector. All probabilities are per I/O
// operation and must lie in [0, 1]; at most one fault fires per operation.
// A write is one whole frame (length prefix and payload leave in one
// Write), so the write side draws once per frame; a read is one fill of
// the receiver's buffer, which may hold part of a frame or several.
type FaultSpec struct {
	// Seed makes the schedule deterministic. Connections are numbered in
	// accept/dial order and each direction of each connection draws from
	// its own sub-stream, so a fixed seed gives a reproducible schedule
	// regardless of goroutine interleaving across connections.
	Seed int64
	// Reset closes the connection mid-operation (probability per op).
	Reset float64
	// Stall sleeps StallFor (jittered) before the operation completes.
	Stall float64
	// Partial writes only a prefix of the buffer, then resets. Applies to
	// writes only.
	Partial float64
	// Delay sleeps DelayFor (jittered) before the operation — modelling a
	// slow or delayed frame rather than a hard stall.
	Delay float64
	// StallFor is the stall duration (default 200ms). Always bounded, so
	// injected stalls can never hang a run that has timeouts.
	StallFor time.Duration
	// DelayFor is the delay duration (default 20ms).
	DelayFor time.Duration
	// Max bounds the total number of injected faults (0 = unlimited), so
	// a seeded chaos schedule is guaranteed to quiesce.
	Max int
}

// Enabled reports whether the spec can inject anything.
func (s FaultSpec) Enabled() bool {
	return s.Reset > 0 || s.Stall > 0 || s.Partial > 0 || s.Delay > 0
}

// Validate checks probability ranges and durations.
func (s FaultSpec) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"reset", s.Reset}, {"stall", s.Stall}, {"partial", s.Partial}, {"delay", s.Delay}} {
		if p.v < 0 || p.v > 1 || p.v != p.v {
			return fmt.Errorf("transport: fault probability %s=%v outside [0, 1]", p.name, p.v)
		}
	}
	if s.Reset+s.Stall+s.Partial+s.Delay > 1 {
		return fmt.Errorf("transport: fault probabilities sum to %v > 1", s.Reset+s.Stall+s.Partial+s.Delay)
	}
	if s.StallFor < 0 || s.DelayFor < 0 {
		return fmt.Errorf("transport: negative fault duration")
	}
	if s.Max < 0 {
		return fmt.Errorf("transport: negative fault budget")
	}
	return nil
}

// ParseFaultSpec parses the -fault-spec flag syntax: comma-separated
// key=value pairs, e.g.
//
//	seed=7,reset=0.02,stall=0.01,partial=0.01,delay=0.05,stall-ms=200,delay-ms=20,max=40
//
// Unknown keys are an error; the empty string is a valid disabled spec.
func ParseFaultSpec(s string) (FaultSpec, error) {
	spec := FaultSpec{}
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return spec, fmt.Errorf("transport: fault spec token %q is not key=value", tok)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch k {
		case "seed", "max", "stall-ms", "delay-ms":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return spec, fmt.Errorf("transport: fault spec %s=%q: %v", k, v, err)
			}
			switch k {
			case "seed":
				spec.Seed = n
			case "max":
				spec.Max = int(n)
			case "stall-ms":
				spec.StallFor = time.Duration(n) * time.Millisecond
			case "delay-ms":
				spec.DelayFor = time.Duration(n) * time.Millisecond
			}
		case "reset", "stall", "partial", "delay":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return spec, fmt.Errorf("transport: fault spec %s=%q: %v", k, v, err)
			}
			switch k {
			case "reset":
				spec.Reset = p
			case "stall":
				spec.Stall = p
			case "partial":
				spec.Partial = p
			case "delay":
				spec.Delay = p
			}
		default:
			return spec, fmt.Errorf("transport: unknown fault spec key %q", k)
		}
	}
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	return spec, nil
}

// String renders the spec back into ParseFaultSpec syntax (only the fields
// that differ from zero), so specs round-trip.
func (s FaultSpec) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if s.Seed != 0 {
		add("seed", strconv.FormatInt(s.Seed, 10))
	}
	if s.Reset != 0 {
		add("reset", strconv.FormatFloat(s.Reset, 'g', -1, 64))
	}
	if s.Stall != 0 {
		add("stall", strconv.FormatFloat(s.Stall, 'g', -1, 64))
	}
	if s.Partial != 0 {
		add("partial", strconv.FormatFloat(s.Partial, 'g', -1, 64))
	}
	if s.Delay != 0 {
		add("delay", strconv.FormatFloat(s.Delay, 'g', -1, 64))
	}
	if s.StallFor != 0 {
		add("stall-ms", strconv.FormatInt(s.StallFor.Milliseconds(), 10))
	}
	if s.DelayFor != 0 {
		add("delay-ms", strconv.FormatInt(s.DelayFor.Milliseconds(), 10))
	}
	if s.Max != 0 {
		add("max", strconv.Itoa(s.Max))
	}
	return strings.Join(parts, ",")
}

// FaultInjector hands out fault-wrapped connections according to one
// FaultSpec. Safe for concurrent use; the total injection count is bounded
// by the spec's Max budget across all wrapped connections.
type FaultInjector struct {
	spec     FaultSpec
	conns    atomic.Int64
	injected atomic.Int64
	budget   atomic.Int64 // remaining faults; < 0 means unlimited

	obsMu    sync.Mutex
	observer func(kind string)
}

// NewFaultInjector builds an injector for spec. A nil injector (or one for
// a disabled spec) wraps connections as no-ops.
func NewFaultInjector(spec FaultSpec) *FaultInjector {
	f := &FaultInjector{spec: spec}
	if spec.Max > 0 {
		f.budget.Store(int64(spec.Max))
	} else {
		f.budget.Store(-1)
	}
	return f
}

// SetObserver registers a callback invoked once per injected fault with
// the fault kind ("reset", "stall", "partial", "delay"). The deploy layer
// uses it to journal chaos faults; the callback runs on the I/O goroutine
// and must be fast and non-blocking.
func (f *FaultInjector) SetObserver(fn func(kind string)) {
	if f == nil {
		return
	}
	f.obsMu.Lock()
	f.observer = fn
	f.obsMu.Unlock()
}

// take consumes one unit of the fault budget; false means the budget is
// spent and no fault may fire.
func (f *FaultInjector) take(kind string) bool {
	for {
		left := f.budget.Load()
		if left < 0 {
			break // unlimited
		}
		if left == 0 {
			return false
		}
		if f.budget.CompareAndSwap(left, left-1) {
			break
		}
	}
	f.injected.Add(1)
	faultsInjected(kind).Inc()
	f.obsMu.Lock()
	fn := f.observer
	f.obsMu.Unlock()
	if fn != nil {
		fn(kind)
	}
	return true
}

// WrapNetConn wraps nc with the injector's fault schedule. A nil injector
// or disabled spec returns nc unchanged.
func (f *FaultInjector) WrapNetConn(nc net.Conn) net.Conn {
	if f == nil || !f.spec.Enabled() {
		return nc
	}
	id := f.conns.Add(1)
	return &faultNetConn{
		Conn: nc,
		inj:  f,
		rrng: rand.New(rand.NewSource(f.spec.Seed + id*1000003 + 1)),
		wrng: rand.New(rand.NewSource(f.spec.Seed + id*1000003 + 2)),
	}
}

// faultNetConn injects faults below the framing layer, where resets and
// partial writes corrupt streams the way real networks do. Each direction
// owns a seeded rng (reads and writes are independently serialized by the
// framing layer's mutexes, so per-direction draws are deterministic).
type faultNetConn struct {
	net.Conn
	inj *FaultInjector

	rmu, wmu   sync.Mutex
	rrng, wrng *rand.Rand
}

// faultAction is one scheduled fault.
type faultAction struct {
	kind  string
	sleep time.Duration
}

// decide draws one fault decision for an operation. write selects the
// write-side table (which includes partial writes).
func (c *faultNetConn) decide(rng *rand.Rand, write bool) (faultAction, bool) {
	spec := c.inj.spec
	r := rng.Float64()
	jitter := 0.5 + rng.Float64() // 0.5x .. 1.5x duration jitter
	cut := spec.Reset
	if r < cut {
		return faultAction{kind: faultReset}, c.inj.take(faultReset)
	}
	if write {
		cut += spec.Partial
		if r < cut {
			return faultAction{kind: faultPartial}, c.inj.take(faultPartial)
		}
	}
	cut += spec.Stall
	if r < cut {
		d := spec.StallFor
		if d == 0 {
			d = 200 * time.Millisecond
		}
		return faultAction{kind: faultStall, sleep: time.Duration(float64(d) * jitter)}, c.inj.take(faultStall)
	}
	cut += spec.Delay
	if r < cut {
		d := spec.DelayFor
		if d == 0 {
			d = 20 * time.Millisecond
		}
		return faultAction{kind: faultDelay, sleep: time.Duration(float64(d) * jitter)}, c.inj.take(faultDelay)
	}
	return faultAction{}, false
}

// injectedErr builds the error surfaced for a hard fault.
func injectedErr(kind string) error {
	return fmt.Errorf("%w: %s", ErrInjected, kind)
}

func (c *faultNetConn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	act, ok := c.decide(c.rrng, false)
	c.rmu.Unlock()
	if ok {
		switch act.kind {
		case faultReset:
			c.Conn.Close()
			return 0, injectedErr(faultReset)
		case faultStall, faultDelay:
			time.Sleep(act.sleep)
		}
	}
	return c.Conn.Read(p)
}

func (c *faultNetConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	act, ok := c.decide(c.wrng, true)
	c.wmu.Unlock()
	if ok {
		switch act.kind {
		case faultReset:
			c.Conn.Close()
			return 0, injectedErr(faultReset)
		case faultPartial:
			n := 0
			if len(p) > 1 {
				c.wmu.Lock()
				n = 1 + c.wrng.Intn(len(p)-1)
				c.wmu.Unlock()
				n, _ = c.Conn.Write(p[:n])
			}
			c.Conn.Close()
			return n, injectedErr(faultPartial)
		case faultStall, faultDelay:
			time.Sleep(act.sleep)
		}
	}
	return c.Conn.Write(p)
}

// Dialer dials framed-message connections with exponential backoff, jitter
// and per-attempt timeouts. The zero value retries once with the defaults.
type Dialer struct {
	// Attempts is the total number of dial attempts (<= 0 means 1).
	Attempts int
	// Backoff is the delay before the first retry (default 50ms); it
	// doubles each retry up to MaxBackoff (default 2s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// AttemptTimeout bounds each dial attempt (default 10s).
	AttemptTimeout time.Duration
	// Seed drives the jitter stream deterministically (0 uses a fixed
	// default so retry storms still decorrelate per Dialer value).
	Seed int64
	// Faults, when non-nil, wraps dialed connections for chaos testing.
	Faults *FaultInjector
}

// backoffAfter returns the sleep before retry i (0-based), with ±25%
// jitter from rng.
func (d Dialer) backoffAfter(i int, rng *rand.Rand) time.Duration {
	base := d.Backoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxB := d.MaxBackoff
	if maxB <= 0 {
		maxB = 2 * time.Second
	}
	b := base << uint(i)
	if b > maxB || b <= 0 {
		b = maxB
	}
	jit := 0.75 + 0.5*rng.Float64()
	return time.Duration(float64(b) * jit)
}

// Dial connects to addr, retrying transient failures with backoff. The
// parent ctx bounds the whole loop; each attempt additionally gets
// AttemptTimeout.
func (d Dialer) Dial(ctx context.Context, addr string) (Conn, error) {
	attempts := d.Attempts
	if attempts <= 0 {
		attempts = 1
	}
	timeout := d.AttemptTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	var rng *rand.Rand // the backoff jitter, drawn only once a dial failed
	var lastErr error
	for i := 0; i < attempts; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
		}
		if i > 0 {
			if rng == nil {
				seed := d.Seed
				if seed == 0 {
					seed = 1
				}
				rng = rand.New(rand.NewSource(seed))
			}
			dialRetries.Inc()
			select {
			case <-time.After(d.backoffAfter(i-1, rng)):
			case <-ctx.Done():
				return nil, fmt.Errorf("transport: dial %s: %w", addr, ctx.Err())
			}
		}
		actx, cancel := context.WithTimeout(ctx, timeout)
		var nd net.Dialer
		nc, err := nd.DialContext(actx, "tcp", addr)
		cancel()
		if err == nil {
			return NewTCPConn(d.Faults.WrapNetConn(nc)), nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("transport: dial %s failed after %d attempts: %w", addr, attempts, lastErr)
}

// FatalError marks an error as non-retryable regardless of what it wraps:
// a protocol-level mismatch that a reconnect cannot fix. The message is
// the wrapped error's, unchanged.
type FatalError struct{ Err error }

func (e *FatalError) Error() string { return e.Err.Error() }
func (e *FatalError) Unwrap() error { return e.Err }

// MarkFatal wraps err so IsRetryable reports false even if the chain also
// contains a retryable I/O error. nil stays nil.
func MarkFatal(err error) error {
	if err == nil {
		return nil
	}
	return &FatalError{Err: err}
}

// IsRetryable classifies an error for the session-resilience retry loops:
// true for transient I/O failures a reconnect may fix (resets, EOFs,
// timeouts, closed connections, injected faults), false for everything
// else — in particular protocol mismatches, which stay wrong on a fresh
// connection. context.Canceled is never retryable (the caller gave up);
// context.DeadlineExceeded is retryable, because per-attempt deadlines are
// how stalled attempts get recycled — callers must check their parent
// context before retrying.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	var fatal *FatalError
	if errors.As(err, &fatal) {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, ErrInjected) || errors.Is(err, ErrClosed) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	for _, errno := range []syscall.Errno{
		syscall.ECONNRESET, syscall.ECONNREFUSED, syscall.ECONNABORTED,
		syscall.EPIPE, syscall.ETIMEDOUT,
	} {
		if errors.Is(err, errno) {
			return true
		}
	}
	var ne net.Error
	return errors.As(err, &ne)
}
