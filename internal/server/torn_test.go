package server_test

import (
	"net"
	"testing"
	"time"

	"espftl/internal/server"
	"espftl/internal/wire"
	"espftl/internal/workload"
)

// TestTornConnection kills clients at the two nastiest moments — with a
// full window of unread replies, and mid-frame — and requires the server
// to reclaim every in-flight slot, keep serving other clients, and drain
// cleanly.
func TestTornConnection(t *testing.T) {
	srv, err := server.New(server.Config{WriteTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}

	// Torn client 1: handshake, fire twice the per-connection window of
	// writes without ever reading a reply, then vanish. The command tail
	// exercises admission blocking; the unread replies exercise the dead-
	// writer path.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteHello(conn, wire.Hello{NS: "default"}); err != nil {
		t.Fatal(err)
	}
	wl, err := wire.ReadWelcome(conn)
	if err != nil || wl.Status != wire.StatusOK {
		t.Fatalf("handshake: %v %+v", err, wl)
	}
	var buf []byte
	for i := 0; i < 2*int(wl.MaxInflight); i++ {
		cmd, err := wire.CmdOf(uint64(i), workload.Request{
			Op: workload.OpWrite, LSN: int64(i % 64 * int(wl.PageSectors)), Sectors: int(wl.PageSectors),
		})
		if err != nil {
			t.Fatal(err)
		}
		buf = wire.AppendCmd(buf, cmd)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// Torn client 2: half a command frame, then gone.
	conn2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wire.WriteHello(conn2, wire.Hello{NS: "default"})
	if _, err := wire.ReadWelcome(conn2); err != nil {
		t.Fatal(err)
	}
	cmd, _ := wire.CmdOf(7, workload.Request{Op: workload.OpWrite, LSN: 0, Sectors: 4})
	frame := wire.AppendCmd(nil, cmd)
	conn2.Write(frame[:len(frame)/2])
	conn2.Close()

	// Every accepted command must complete and release its slot even
	// though nobody reads the replies.
	waitFor(t, 5*time.Second, "in-flight slots to drain after torn connections", func() bool {
		return srv.Inflight() == 0
	})

	// The server is still healthy for a well-behaved client.
	c, err := server.Dial(srv.Addr(), "default")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stream := mixedStream(t, int64(c.Welcome.Sectors), int(c.Welcome.PageSectors), 1000, 99)
	cr, err := c.RunRequests(stream, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Ops != int64(len(stream)) || cr.Errors != 0 || cr.Rejected != 0 {
		t.Fatalf("post-torn client run: %+v", cr)
	}

	rep, err := srv.Shutdown()
	if err != nil {
		t.Fatalf("shutdown after torn connections: %v", err)
	}
	if rep.Submitted != rep.Completed {
		t.Fatalf("drain dropped commands: submitted %d completed %d", rep.Submitted, rep.Completed)
	}
	if srv.Inflight() != 0 {
		t.Fatalf("%d slots leaked", srv.Inflight())
	}
}

// TestWriteDeadlineHealthyStream is the other half of the write-deadline
// contract: the deadline bounds each socket write, not the connection's
// lifetime, so a client that keeps reading a continuous stream of
// replies for many multiples of WriteTimeout is never declared dead.
func TestWriteDeadlineHealthyStream(t *testing.T) {
	const timeout = 50 * time.Millisecond
	srv, err := server.New(server.Config{WriteTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}
	c, err := server.Dial(srv.Addr(), "default")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A writer declared dead discards every later reply; the read
	// deadline turns that stall into a reported error instead of a hang.
	server.RawConn(c).SetReadDeadline(time.Now().Add(10 * time.Second))
	stream := mixedStream(t, int64(c.Welcome.Sectors), int(c.Welcome.PageSectors), 1000, 5)
	start := time.Now()
	sent := 0
	cr, err := c.Run(func() (workload.Request, bool) {
		if time.Since(start) < 12*timeout {
			sent++
			return stream[sent%len(stream)], true
		}
		return workload.Request{}, false
	}, 8, nil)
	if err != nil {
		t.Fatalf("healthy stream after %v: %v", time.Since(start), err)
	}
	if cr.Ops != int64(sent) || cr.Errors != 0 || cr.Rejected != 0 {
		t.Fatalf("healthy stream: sent %d, report %+v", sent, cr)
	}
	// The connection is still served after the stream.
	if _, err := c.Stat(); err != nil {
		t.Fatalf("STAT after the stream: %v", err)
	}
	rep, err := srv.Shutdown()
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if rep.Submitted != rep.Completed {
		t.Fatalf("drain dropped commands: submitted %d completed %d", rep.Submitted, rep.Completed)
	}
}
