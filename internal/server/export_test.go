package server

import (
	"net"

	"espftl/internal/host"
)

// RawConn exposes a Client's underlying connection to the external test
// package, for tests that speak wire frames directly.
func RawConn(c *Client) net.Conn { return c.conn }

// ShardReport exposes one shard engine's own report, available once
// Shutdown has retired the engines.
func ShardReport(s *Server, i int) *host.Report { return s.shards[i].rep }
