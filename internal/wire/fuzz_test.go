package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"espftl/internal/workload"
)

// FuzzCmdReader feeds arbitrary byte streams to the server's command
// decoder. It must never panic, and every frame it accepts must
// re-encode to exactly the bytes it was decoded from: a field the
// decoder drops or normalizes would let two different frames mean the
// same command.
func FuzzCmdReader(f *testing.F) {
	var seed []byte
	for i, r := range []workload.Request{
		{Op: workload.OpWrite, LSN: 8, Sectors: 8, Sync: true},
		{Op: workload.OpRead, LSN: 1 << 40, Sectors: 1},
		{Op: workload.OpTrim, LSN: 3, Sectors: 5},
		{Op: workload.OpFlush},
		{Op: workload.OpAdvance, Gap: 1e9},
	} {
		c, err := CmdOf(uint64(i), r)
		if err != nil {
			f.Fatal(err)
		}
		seed = AppendCmd(seed, c)
	}
	seed = AppendCmd(seed, Cmd{Op: OpStat, Tag: 99})
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // truncated last frame
	bad := append([]byte(nil), seed...)
	bad[5] = 0x80 // reserved flag bit
	f.Add(bad)
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame+1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		cr := NewCmdReader(bytes.NewReader(raw))
		off := 0
		for {
			c, err := cr.Read()
			if err != nil {
				return
			}
			enc := AppendCmd(nil, c)
			if !bytes.HasPrefix(raw[off:], enc) {
				t.Fatalf("frame at offset %d decoded to %+v, which re-encodes to %x, not %x",
					off, c, enc, raw[off:min(off+len(enc), len(raw))])
			}
			off += len(enc)
		}
	})
}

// FuzzReplyReader is FuzzCmdReader for the client's reply decoder,
// whose frames carry a variable-length payload.
func FuzzReplyReader(f *testing.F) {
	var seed []byte
	seed = AppendReply(seed, Reply{Tag: 1, Status: StatusOK, LatencyNS: 1500})
	seed = AppendReply(seed, Reply{Tag: 2, Status: StatusErr, Payload: []byte("out of range")})
	seed = AppendReply(seed, Reply{Tag: 3, Status: StatusOK, Payload: []byte(`{"name":"a"}`)})
	f.Add(seed)
	f.Add(seed[:len(seed)-4]) // truncated payload
	f.Add(binary.BigEndian.AppendUint32(nil, 16))
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame+1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		rr := NewReplyReader(bytes.NewReader(raw))
		off := 0
		for {
			r, err := rr.Read()
			if err != nil {
				return
			}
			enc := AppendReply(nil, r)
			if !bytes.HasPrefix(raw[off:], enc) {
				t.Fatalf("frame at offset %d decoded to tag %d status %d latency %d payload %q, which re-encodes to %x, not %x",
					off, r.Tag, r.Status, r.LatencyNS, r.Payload, enc, raw[off:min(off+len(enc), len(raw))])
			}
			off += len(enc)
		}
	})
}
