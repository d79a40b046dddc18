package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"slices"
)

// Wire format (all integers big-endian):
//
//	frame   := kind(1) nflags(4) flags(8*nflags) nvalues(4) value*
//	value   := sign(1) len(4) bytes(len)
//
// The codec is deliberately self-describing and bounded: readers reject
// frames whose declared sizes exceed maxElems / maxValueBytes so a corrupt
// or malicious peer cannot trigger unbounded allocation.

const (
	maxElems      = 1 << 20 // max flags or values per message
	maxValueBytes = 1 << 24 // max bytes per big integer (16 MiB)
)

// EncodedSize returns the exact number of payload bytes the codec produces
// for msg, without encoding or allocating.
func EncodedSize(msg *Message) int {
	size := 1 + 4 + 8*len(msg.Flags) + 4
	for _, v := range msg.Values {
		size += 1 + 4
		if v != nil {
			size += (v.BitLen() + 7) / 8
		}
	}
	return size
}

// WriteMessage encodes msg onto w in one Write.
func WriteMessage(w io.Writer, msg *Message) error {
	buf, err := appendMessage(nil, msg)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// appendMessage appends msg's codec encoding to buf, growing it once to the
// encoded size and writing each value once by putMagnitude.
func appendMessage(buf []byte, msg *Message) ([]byte, error) {
	if msg == nil {
		return nil, fmt.Errorf("transport: cannot encode nil message")
	}
	buf = slices.Grow(buf, EncodedSize(msg))
	buf = append(buf, byte(msg.Kind))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(msg.Flags)))
	for _, f := range msg.Flags {
		buf = binary.BigEndian.AppendUint64(buf, uint64(f))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(msg.Values)))
	for i, v := range msg.Values {
		if v == nil {
			return nil, fmt.Errorf("transport: nil value at index %d", i)
		}
		sign := byte(0)
		if v.Sign() < 0 {
			sign = 1
		}
		n := (v.BitLen() + 7) / 8
		buf = append(buf, sign)
		buf = binary.BigEndian.AppendUint32(buf, uint32(n))
		buf = buf[:len(buf)+n]
		putMagnitude(buf[len(buf)-n:], v.Bits())
	}
	return buf, nil
}

// putMagnitude writes the words x big-endian into dst, which holds exactly
// their (BitLen+7)/8 bytes: what FillBytes writes, but a 64-bit word per
// store (byte by byte only the top word, or every word at W = 32).
func putMagnitude(dst []byte, x []big.Word) {
	i := len(dst)
	for _, w := range x {
		if bits.UintSize == 64 && i >= 8 {
			binary.BigEndian.PutUint64(dst[i-8:i], uint64(w))
			i -= 8
			continue
		}
		for j := 0; j < bits.UintSize/8 && i > 0; j, w = j+1, w>>8 {
			i--
			dst[i] = byte(w)
		}
	}
}

// DecodeMessage decodes the message at the head of p and returns it with
// the number of bytes it spans; what follows is the caller's (a length-
// prefixed frame must end there, see tcpConn.Recv). The values are read
// into one []big.Int and one word arena per message; each value is a view
// of its own words whose capacity ends where they end, so growing one in
// place moves it and never writes into the next. A truncated message wraps
// io.ErrUnexpectedEOF (io.EOF for an empty p), as a short read would.
func DecodeMessage(p []byte) (*Message, int, error) {
	// The first pass validates the layout and sizes the arena; the second
	// fills it, so a message costs a fixed handful of allocations.
	short := func(what string) error {
		err := io.ErrUnexpectedEOF
		if len(p) == 0 {
			err = io.EOF
		}
		return fmt.Errorf("transport: read %s: %w", what, err)
	}
	if len(p) < 5 {
		return nil, 0, short("header")
	}
	nflags := binary.BigEndian.Uint32(p[1:5])
	if nflags > maxElems {
		return nil, 0, fmt.Errorf("transport: flag count %d exceeds limit", nflags)
	}
	off := 5 + 8*int(nflags)
	if len(p) < off {
		return nil, 0, short("flags")
	}
	if len(p) < off+4 {
		return nil, 0, short("value count")
	}
	nvalues := binary.BigEndian.Uint32(p[off:])
	if nvalues > maxElems {
		return nil, 0, fmt.Errorf("transport: value count %d exceeds limit", nvalues)
	}
	off += 4
	values, words := off, 0
	for i := 0; i < int(nvalues); i++ {
		if len(p) < off+5 {
			return nil, 0, short(fmt.Sprintf("value %d header", i))
		}
		vlen := binary.BigEndian.Uint32(p[off+1:])
		if vlen > maxValueBytes {
			return nil, 0, fmt.Errorf("transport: value %d size %d exceeds limit", i, vlen)
		}
		if p[off] > 1 {
			return nil, 0, fmt.Errorf("transport: value %d has invalid sign byte %d", i, p[off])
		}
		off += 5
		if len(p) < off+int(vlen) {
			return nil, 0, short(fmt.Sprintf("value %d", i))
		}
		off += int(vlen)
		words += valueWords(int(vlen))
	}

	msg := &Message{Kind: MessageKind(p[0])}
	if nflags > 0 {
		msg.Flags = make([]int64, nflags)
		for i := range msg.Flags {
			msg.Flags[i] = int64(binary.BigEndian.Uint64(p[5+8*i:]))
		}
	}
	if nvalues > 0 {
		msg.Values = make([]*big.Int, nvalues)
		vals, arena := make([]big.Int, nvalues), make([]big.Word, words)
		for i := range msg.Values {
			vlen := int(binary.BigEndian.Uint32(p[values+1:]))
			k := valueWords(vlen)
			v := vals[i].SetBits(arena[:0:k]) // SetBytes fills these k words
			v.SetBytes(p[values+5 : values+5+vlen])
			if p[values] == 1 {
				v.Neg(v)
			}
			msg.Values[i] = v
			arena, values = arena[k:], values+5+vlen
		}
	}
	return msg, off, nil
}

// valueWords is the number of words a value of n bytes occupies.
func valueWords(n int) int { return (n + bits.UintSize/8 - 1) / (bits.UintSize / 8) }
