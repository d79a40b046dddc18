package deploy

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/privconsensus/privconsensus/internal/dp"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// Admission and serve-control wire vocabulary. Every run speaks it: S2
// dials the serve-control link beside the protocol link and marks its hello
// with capServeCtl, the one bit that names a link. A batch run announces no
// queries on it (both servers pre-register theirs) but drains through it.
//
// Three handshakes share the control-frame grammar (Flags[0] = code):
//
//	admission (client → S1):
//	    [120, tenant, nonce]           admit request; nonce makes the
//	                                   request idempotent across redials
//	    [121, status, qid, epoch]      admit reply; on refusal qid is 0
//	                                   and status names the typed reason
//	    [122, qid]                     result wait (blocks)
//	    [123, qid, status, label, attempts]  result reply
//
//	serve control (S1 → S2, request/response on the dedicated ctl link):
//	    [124, qid, epoch, tenant] / [125, qid, status]    announce query
//	    [126, epoch] / [127, epoch, status]               epoch prepare
//	    [128, epoch] / [127, epoch, status]               epoch commit
//	    [129, epoch] / [127, epoch, status]               epoch retire
//	    [130, 0]     / [127, 0, status]                   drain
//
//	session (S1 → S2, protocol link): the session begin/end frames
//	    (100/101) with the query ID in the instance slot.
const (
	// capServeCtl marks S2's dedicated serve-control connection to S1.
	capServeCtl int64 = 128

	ctrlAdmitRequest  int64 = 120
	ctrlAdmitReply    int64 = 121
	ctrlResultWait    int64 = 122
	ctrlResultReply   int64 = 123
	ctrlServeAnnounce int64 = 124
	ctrlServeAck      int64 = 125
	ctrlEpochPrepare  int64 = 126
	ctrlEpochAck      int64 = 127
	ctrlEpochCommit   int64 = 128
	ctrlEpochRetire   int64 = 129
	ctrlServeDrain    int64 = 130
)

// Admission decision statuses ([121] Flags[1]). Every refusal is typed
// and leaves no protocol bytes spent: the client may retry later
// (draining, overloaded, unavailable) or must wait for budget
// replenishment that serve mode never grants (budget-exhausted).
const (
	admitOK              int64 = 0
	admitBudgetExhausted int64 = 1
	admitDraining        int64 = 2
	admitOverloaded      int64 = 3
	admitUnavailable     int64 = 4
)

// Result statuses ([123] Flags[2]).
const (
	resultConsensus   int64 = 0
	resultNoConsensus int64 = 1
	resultFailed      int64 = 2
	resultQuorumMiss  int64 = 3
	resultUnknown     int64 = 4
)

// Typed admission refusals. All are retryable in the transport sense —
// the server refused cleanly before any protocol traffic — but only
// ErrBudgetExhausted is permanent for the tenant.
var (
	// ErrBudgetExhausted reports that admitting the query would push the
	// tenant's cumulative (ε, δ)-DP spend past its quota (the ledger's error).
	ErrBudgetExhausted = dp.ErrBudgetExhausted
	// ErrDraining reports that the server has stopped admitting (graceful
	// shutdown in progress); in-flight queries still complete.
	ErrDraining = errors.New("deploy: server draining, not admitting")
	// ErrOverloaded reports that the in-flight admission window is full.
	ErrOverloaded = errors.New("deploy: admission window full")
	// ErrServeUnavailable reports that S1 could not coordinate the
	// admission with S2 (serve-control link down); retry after backoff.
	ErrServeUnavailable = errors.New("deploy: serve control plane unavailable")
	// ErrQueryFailed reports that an admitted query exhausted the server's
	// retry budget without completing the protocol. The query is resolved
	// and its worst-case spend committed; resubmitting is a new query.
	ErrQueryFailed = errors.New("deploy: query failed after exhausting retries")
)

// admitError maps a typed admission status to its error (nil for admitOK).
func admitError(status int64) error {
	switch status {
	case admitOK:
		return nil
	case admitBudgetExhausted:
		return ErrBudgetExhausted
	case admitDraining:
		return ErrDraining
	case admitOverloaded:
		return ErrOverloaded
	case admitUnavailable:
		return ErrServeUnavailable
	default:
		return fmt.Errorf("deploy: unknown admission status %d", status)
	}
}

// admitDecision is the metric/journal label of an admission status.
func admitDecision(status int64) string {
	switch status {
	case admitOK:
		return "admitted"
	case admitBudgetExhausted:
		return "budget-exhausted"
	case admitDraining:
		return "draining"
	case admitOverloaded:
		return "overloaded"
	case admitUnavailable:
		return "unavailable"
	default:
		return "unknown"
	}
}

// ServeOptions configures one server run (ServeS1, ServeS2). The embedded
// ServerOptions supplies the transport, observability, retry-budget and
// participation settings and, in Instances, the number of queries both
// servers pre-register as 0..Instances-1: a run with Instances > 0 drains
// once those resolve, one with Instances == 0 admits on demand until
// DrainCh fires or ctx ends.
type ServeOptions struct {
	ServerOptions

	// Tenants maps tenant IDs to their (ε, δ)-DP quota. A tenant absent
	// from the map falls back to DefaultQuota.
	Tenants map[int64]float64
	// DefaultQuota is the ε quota for tenants not listed in Tenants;
	// 0 means unlimited.
	DefaultQuota float64
	// Delta is the δ at which quotas are evaluated (default 1e-6).
	Delta float64
	// LedgerPath, when non-empty, persists the per-tenant spend ledger
	// (fsync + exclusive lock; the library engine's AccountantPath). Empty keeps
	// the ledger in memory — quotas still apply within the run.
	LedgerPath string
	// MaxInFlight bounds admitted-but-unresolved queries (default 4);
	// admissions beyond it are refused with the typed overloaded status.
	MaxInFlight int
	// RotateAfter, when > 0, triggers one epoch rotation after that many
	// granted admissions (requires a provisioned next epoch key file).
	RotateAfter int
	// RotateCh, when non-nil, triggers an epoch rotation per received
	// value (SIGHUP in cmd/server, explicit nudges in tests).
	RotateCh <-chan struct{}
	// DrainCh, when non-nil, starts a graceful drain when it is closed
	// or receives a value: stop admitting, finish in-flight queries,
	// flush the ledger and journal, return the report.
	DrainCh <-chan struct{}
	// DrainTimeout bounds the drain phase (default 2× AttemptTimeout);
	// queries still unresolved when it fires fail cleanly.
	DrainTimeout time.Duration
}

// delta returns the quota δ with its default.
func (o ServeOptions) delta() float64 {
	if o.Delta > 0 {
		return o.Delta
	}
	return 1e-6
}

// maxInFlight returns the admission window with its default.
func (o ServeOptions) maxInFlight() int {
	if o.MaxInFlight > 0 {
		return o.MaxInFlight
	}
	return 4
}

// drainTimeout returns the drain bound with its default.
func (o ServeOptions) drainTimeout() time.Duration {
	if o.DrainTimeout > 0 {
		return o.DrainTimeout
	}
	return 2 * o.attemptTimeout()
}

// validate checks the options.
func (o ServeOptions) validate() error {
	if err := o.validatePolicy(); err != nil {
		return err
	}
	if o.Instances < 0 {
		return fmt.Errorf("deploy: negative instance count %d", o.Instances)
	}
	if o.MaxInFlight < 0 {
		return fmt.Errorf("deploy: negative max in-flight %d", o.MaxInFlight)
	}
	if o.RotateAfter < 0 {
		return fmt.Errorf("deploy: negative rotate-after %d", o.RotateAfter)
	}
	if o.Delta < 0 || o.Delta >= 1 {
		return fmt.Errorf("deploy: quota delta %g outside (0, 1)", o.Delta)
	}
	if o.DefaultQuota < 0 {
		return fmt.Errorf("deploy: negative default quota %g", o.DefaultQuota)
	}
	for t, q := range o.Tenants {
		if q < 0 {
			return fmt.Errorf("deploy: negative quota %g for tenant %d", q, t)
		}
	}
	return nil
}

// sendCtl sends a serve-control request and awaits the expected ack code,
// returning the ack arguments.
func sendCtl(ctx context.Context, conn transport.Conn, ackCode int64, code int64, args ...int64) ([]int64, error) {
	if err := transport.SendControl(ctx, conn, code, args...); err != nil {
		return nil, err
	}
	return transport.ExpectControl(ctx, conn, ackCode)
}
