package transport

import (
	"context"
	"fmt"
	"math/big"
)

// Batched frames: one KindBatch frame carries `count` messages of a single
// inner kind so one round trip moves a whole phase of lock-step exchanges
// (e.g. every DGK comparison of a tournament bracket level). The layout is
// self-describing so items may differ in value and flag counts:
//
//	batch frame := Kind=KindBatch
//	               Flags=[inner-kind, count,
//	                      nvalues_0, nflags_0, flags_0...,
//	                      nvalues_1, nflags_1, flags_1..., ...]
//	               Values=values_0 ++ values_1 ++ ...
//
// Batch frames never nest inside each other, and never carry the reserved
// KindMux.

// WrapBatch packs items — all of the same kind — into one batch frame.
func WrapBatch(items []*Message) (*Message, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("transport: cannot batch zero messages")
	}
	nvals := 0
	nflags := 0
	var inner MessageKind
	for i, it := range items {
		if it == nil {
			return nil, fmt.Errorf("transport: nil message at batch index %d", i)
		}
		if i == 0 {
			inner = it.Kind
			if inner == 0 || inner == KindMux || inner == KindBatch {
				return nil, fmt.Errorf("transport: cannot wrap %v messages in a batch frame", inner)
			}
		}
		if it.Kind != inner {
			return nil, fmt.Errorf("transport: batch mixes kinds %v and %v", inner, it.Kind)
		}
		nvals += len(it.Values)
		nflags += len(it.Flags)
	}
	flags := make([]int64, 0, 2+2*len(items)+nflags)
	flags = append(flags, int64(inner), int64(len(items)))
	values := make([]*big.Int, 0, nvals)
	for _, it := range items {
		flags = append(flags, int64(len(it.Values)), int64(len(it.Flags)))
		flags = append(flags, it.Flags...)
		values = append(values, it.Values...)
	}
	return &Message{Kind: KindBatch, Flags: flags, Values: values}, nil
}

// OpenBatch splits a batch frame into its constituent messages. The item
// headers are validated against the frame's actual flag and value counts, so
// a malformed or malicious batch cannot cause out-of-range reads or
// unbounded allocation beyond the already-bounded frame.
func OpenBatch(msg *Message) ([]*Message, error) {
	if msg == nil || msg.Kind != KindBatch {
		got := MessageKind(0)
		if msg != nil {
			got = msg.Kind
		}
		return nil, fmt.Errorf("transport: expected batch frame, got %v", got)
	}
	if len(msg.Flags) < 2 {
		return nil, fmt.Errorf("transport: batch frame with %d flags (need >= 2)", len(msg.Flags))
	}
	kind, count := msg.Flags[0], msg.Flags[1]
	if kind < 1 || kind > 255 || MessageKind(kind) == KindMux || MessageKind(kind) == KindBatch {
		return nil, fmt.Errorf("transport: invalid inner kind %d in batch frame", kind)
	}
	if count < 1 || count > int64(len(msg.Flags)) {
		return nil, fmt.Errorf("transport: invalid batch count %d", count)
	}
	items := make([]*Message, 0, count)
	fi, vi := 2, 0
	for n := int64(0); n < count; n++ {
		if fi+2 > len(msg.Flags) {
			return nil, fmt.Errorf("transport: batch item %d header truncated", n)
		}
		nv, nf := msg.Flags[fi], msg.Flags[fi+1]
		fi += 2
		if nv < 0 || int64(vi)+nv > int64(len(msg.Values)) {
			return nil, fmt.Errorf("transport: batch item %d declares %d values beyond frame", n, nv)
		}
		if nf < 0 || int64(fi)+nf > int64(len(msg.Flags)) {
			return nil, fmt.Errorf("transport: batch item %d declares %d flags beyond frame", n, nf)
		}
		item := &Message{Kind: MessageKind(kind)}
		if nv > 0 {
			item.Values = msg.Values[vi : vi+int(nv)]
			vi += int(nv)
		}
		if nf > 0 {
			item.Flags = msg.Flags[fi : fi+int(nf)]
			fi += int(nf)
		}
		items = append(items, item)
	}
	if fi != len(msg.Flags) || vi != len(msg.Values) {
		return nil, fmt.Errorf("transport: batch frame has %d trailing flags and %d trailing values",
			len(msg.Flags)-fi, len(msg.Values)-vi)
	}
	return items, nil
}

// ExpectBatch receives one batch frame and verifies both the inner kind and
// the item count, the lock-step pattern of batched sub-protocols. Mismatches
// are protocol-level disagreements and therefore fatal, like ExpectKind.
func ExpectBatch(ctx context.Context, c Conn, inner MessageKind, count int) ([]*Message, error) {
	msg, err := ExpectKind(ctx, c, KindBatch)
	if err != nil {
		return nil, err
	}
	items, err := OpenBatch(msg)
	if err != nil {
		return nil, MarkFatal(err)
	}
	if items[0].Kind != inner {
		return nil, MarkFatal(fmt.Errorf("transport: expected batch of %v messages, got %v", inner, items[0].Kind))
	}
	if len(items) != count {
		return nil, MarkFatal(fmt.Errorf("transport: expected batch of %d messages, got %d", count, len(items)))
	}
	return items, nil
}
