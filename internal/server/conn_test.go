package server

import (
	"net"
	"testing"
	"time"

	"espftl/internal/wire"
)

// countConn is a net.Conn that accepts every write and counts socket
// writes and write-deadline updates.
type countConn struct {
	net.Conn
	writes, deadlines int
}

func (c *countConn) Write(p []byte) (int, error)      { c.writes++; return len(p), nil }
func (c *countConn) SetWriteDeadline(time.Time) error { c.deadlines++; return nil }

// A burst of replies that fits the writer's buffer goes out in one
// socket write, and the write deadline is armed once for it — not once
// per reply frame and again for the flush.
func TestConnWriterOneDeadlinePerSocketWrite(t *testing.T) {
	s := &Server{cfg: Config{WriteTimeout: time.Second}}
	const n = 64
	ioCh := make(chan wire.Reply, n)
	for i := 0; i < n; i++ {
		ioCh <- wire.Reply{Tag: uint64(i), Status: wire.StatusOK}
	}
	close(ioCh)
	auxCh := make(chan wire.Reply)
	close(auxCh)
	c := &countConn{}
	done := make(chan struct{})
	s.connWriter(c, wire.Version, ioCh, auxCh, done)
	if c.writes != 1 || c.deadlines != 1 {
		t.Fatalf("%d replies: %d socket writes, %d deadline updates; want 1 and 1", n, c.writes, c.deadlines)
	}
}

// A peer that stops reading is declared dead once one socket write has
// been blocked for WriteTimeout: the writer then discards the remaining
// replies and retires instead of blocking its connection forever. The
// pipe has no buffer, so the first flush blocks until the deadline.
func TestConnWriterStalledPeerDeclaredDead(t *testing.T) {
	const timeout = 50 * time.Millisecond
	s := &Server{cfg: Config{WriteTimeout: timeout}}
	srvEnd, peer := net.Pipe()
	defer srvEnd.Close()
	defer peer.Close()
	ioCh := make(chan wire.Reply, 4)
	auxCh := make(chan wire.Reply)
	done := make(chan struct{})
	start := time.Now()
	go s.connWriter(srvEnd, wire.Version, ioCh, auxCh, done)
	for i := 0; i < 3; i++ {
		ioCh <- wire.Reply{Tag: uint64(i), Status: wire.StatusOK}
	}
	close(ioCh)
	close(auxCh)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writer still blocked on a peer that stopped reading")
	}
	if d := time.Since(start); d < timeout {
		t.Fatalf("writer gave up after %v, before the %v write timeout", d, timeout)
	}
}
