package main

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"espftl/internal/wire"
	"espftl/internal/workload"
)

// benchConn is one attached block-device connection. The benchmark speaks
// the wire protocol itself, through the public codec, so it can time every
// command exactly.
type benchConn struct {
	c  net.Conn
	br *bufio.Reader
	rr *wire.ReplyReader
	wl wire.Welcome
}

// dialBench connects to a server and attaches to the namespace.
func dialBench(addr, ns string) (*benchConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteHello(c, wire.Hello{NS: ns}); err != nil {
		c.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	wl, err := wire.ReadWelcome(c)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("welcome: %w", err)
	}
	if wl.Status != wire.StatusOK {
		c.Close()
		return nil, fmt.Errorf("server refused %q: %s", ns, wl.Err)
	}
	c.SetDeadline(time.Time{})
	br := bufio.NewReader(c)
	return &benchConn{c: c, br: br, rr: wire.NewReplyReader(br), wl: wl}, nil
}

// maxDepth bounds the queue depth: the low tag bits name the in-flight
// slot a reply belongs to.
const maxDepth = 64

// frameCap bounds the frames a traced connection keeps for the in-memory
// codec replay.
const frameCap = 1 << 18

// window is one slice of the measured phase.
type window struct {
	// read and write are the exact wall latencies of the commands sent in
	// the slice.
	read, write latencies
	// completed counts the replies that arrived in the slice.
	completed int64
}

// connResult is one connection's record of a closed-loop run.
type connResult struct {
	// windows slice the measured phase into equal parts.
	windows []window
	// attempted and failed count every command of the run, the final
	// FLUSH included; failed counts replies whose status is not OK.
	attempted, failed int64
	firstErr          string
	// acked counts, per namespace sector, the writes acknowledged OK.
	acked []uint32
	// rttNS sums the round trips of every command of the run.
	rttNS int64
	// cmds and reps are the run's frames (traced runs only).
	cmds []wire.Cmd
	reps []wire.Reply
}

// closedLoop drives requests from next at the given queue depth: it sends
// depth commands, then sends the next one each time a reply arrives, so
// depth commands stay in flight. Commands answered by replies that arrived
// together go out in one write. It stops sending at deadline, collects
// every outstanding reply, then sends one FLUSH and waits for it.
// Latencies are kept for commands sent in [warmEnd, deadline), in
// len(res.windows) equal slices. The loop runs on the caller's goroutine.
func (bc *benchConn) closedLoop(next func() workload.Request, depth int, warmEnd, deadline time.Time, keepFrames bool, res *connResult) error {
	if depth < 1 || depth > maxDepth {
		return fmt.Errorf("queue depth %d outside 1..%d", depth, maxDepth)
	}
	type slot struct {
		req  workload.Request
		sent time.Time
	}
	var slots [maxDepth]slot
	slice := deadline.Sub(warmEnd) / time.Duration(len(res.windows))
	windowOf := func(t time.Time) *window {
		if t.Before(warmEnd) || !t.Before(deadline) {
			return nil
		}
		if i := int(t.Sub(warmEnd) / slice); i < len(res.windows) {
			return &res.windows[i]
		}
		return nil
	}
	var (
		buf         []byte
		pending     []int // slots framed into buf, not yet written
		seq         uint64
		outstanding int
	)
	// add frames the next command for slot i into buf.
	add := func(i int, req workload.Request) error {
		cmd, err := wire.CmdOf(seq*maxDepth+uint64(i), req)
		if err != nil {
			return err
		}
		seq++
		slots[i].req = req
		pending = append(pending, i)
		outstanding++
		res.attempted++
		if keepFrames && len(res.cmds) < frameCap {
			res.cmds = append(res.cmds, cmd)
		}
		buf = wire.AppendCmd(buf, cmd)
		return nil
	}
	// flush writes buf; its commands' round trips start now.
	flush := func() error {
		now := time.Now()
		for _, i := range pending {
			slots[i].sent = now
		}
		_, err := bc.c.Write(buf)
		buf, pending = buf[:0], pending[:0]
		return err
	}

	for i := 0; i < depth; i++ {
		if err := add(i, next()); err != nil {
			return err
		}
	}
	if err := flush(); err != nil {
		return fmt.Errorf("sending: %w", err)
	}
	for {
		rep, err := bc.rr.Read()
		if err != nil {
			return fmt.Errorf("reading replies: %w", err)
		}
		now := time.Now()
		i := int(rep.Tag % maxDepth)
		sl := slots[i]
		outstanding--
		rtt := now.Sub(sl.sent).Nanoseconds()
		res.rttNS += rtt
		if keepFrames && len(res.reps) < frameCap {
			res.reps = append(res.reps, wire.Reply{Tag: rep.Tag, Status: rep.Status, LatencyNS: rep.LatencyNS})
		}
		if rep.Status != wire.StatusOK {
			res.failed++
			if res.firstErr == "" {
				res.firstErr = fmt.Sprintf("%v: %s: %s", sl.req, wire.StatusName(rep.Status), rep.Payload)
			}
		} else if sl.req.Op == workload.OpWrite {
			for s := sl.req.LSN; s < sl.req.LSN+int64(sl.req.Sectors); s++ {
				res.acked[s]++
			}
		}
		if w := windowOf(sl.sent); w != nil {
			switch sl.req.Op {
			case workload.OpRead:
				w.read = append(w.read, rtt)
			case workload.OpWrite:
				w.write = append(w.write, rtt)
			}
		}
		if w := windowOf(now); w != nil {
			w.completed++
		}
		switch {
		case sl.req.Op == workload.OpFlush:
			return nil
		case now.Before(deadline):
			err = add(i, next())
		case outstanding == 0:
			err = add(i, workload.Request{Op: workload.OpFlush})
		}
		if err != nil {
			return err
		}
		if len(buf) == 0 || bc.br.Buffered() > 0 {
			continue // answer the replies already received first
		}
		if err := flush(); err != nil {
			return fmt.Errorf("sending: %w", err)
		}
	}
}
