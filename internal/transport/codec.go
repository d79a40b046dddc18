package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
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
	buf, err := encode(msg, 0)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// encode returns msg's codec encoding behind head bytes left for the caller
// (a frame's length prefix), each value written once by FillBytes.
func encode(msg *Message, head int) ([]byte, error) {
	if msg == nil {
		return nil, fmt.Errorf("transport: cannot encode nil message")
	}
	buf := make([]byte, head, head+EncodedSize(msg))
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
		v.FillBytes(buf[len(buf)-n:])
	}
	return buf, nil
}

// ReadMessage decodes one message from r.
func ReadMessage(r io.Reader) (*Message, error) {
	var head [5]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("transport: read header: %w", err)
	}
	msg := &Message{Kind: MessageKind(head[0])}
	nflags := binary.BigEndian.Uint32(head[1:5])
	if nflags > maxElems {
		return nil, fmt.Errorf("transport: flag count %d exceeds limit", nflags)
	}
	if nflags > 0 {
		fb := make([]byte, 8*nflags)
		if _, err := io.ReadFull(r, fb); err != nil {
			return nil, fmt.Errorf("transport: read flags: %w", err)
		}
		msg.Flags = make([]int64, nflags)
		for i := range msg.Flags {
			msg.Flags[i] = int64(binary.BigEndian.Uint64(fb[8*i:]))
		}
	}
	var nvBuf [4]byte
	if _, err := io.ReadFull(r, nvBuf[:]); err != nil {
		return nil, fmt.Errorf("transport: read value count: %w", err)
	}
	nvalues := binary.BigEndian.Uint32(nvBuf[:])
	if nvalues > maxElems {
		return nil, fmt.Errorf("transport: value count %d exceeds limit", nvalues)
	}
	if nvalues > 0 {
		msg.Values = make([]*big.Int, nvalues)
		for i := range msg.Values {
			var vh [5]byte
			if _, err := io.ReadFull(r, vh[:]); err != nil {
				return nil, fmt.Errorf("transport: read value %d header: %w", i, err)
			}
			vlen := binary.BigEndian.Uint32(vh[1:5])
			if vlen > maxValueBytes {
				return nil, fmt.Errorf("transport: value %d size %d exceeds limit", i, vlen)
			}
			vb := make([]byte, vlen)
			if _, err := io.ReadFull(r, vb); err != nil {
				return nil, fmt.Errorf("transport: read value %d: %w", i, err)
			}
			v := new(big.Int).SetBytes(vb)
			if vh[0] == 1 {
				v.Neg(v)
			} else if vh[0] != 0 {
				return nil, fmt.Errorf("transport: value %d has invalid sign byte %d", i, vh[0])
			}
			msg.Values[i] = v
		}
	}
	return msg, nil
}
