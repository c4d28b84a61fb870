package service

import (
	"fmt"
	"net"

	"github.com/unifdist/unifdist/internal/cluster"
	"github.com/unifdist/unifdist/internal/dist"
	"github.com/unifdist/unifdist/internal/wire"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// RejectError is a typed admission denial from the service.
type RejectError struct {
	Tenant uint32
	Reason byte
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("service: session rejected for tenant %d: %s", e.Tenant, wire.RejectReasonName(e.Reason))
}

// Client is one opened session from the client side: it holds the
// control connection and the granted session ID that node clients must
// stamp on their frames.
type Client struct {
	session uint32
	tenant  uint32
	ctrl    net.Conn
	r       *wire.Reader
}

// Open dials the service, requests a session, and completes admission.
// A denial surfaces as *RejectError; the connection is closed either
// way when Open fails.
func Open(dial func() (net.Conn, error), open *wire.SessionOpen) (*Client, error) {
	conn, err := dial()
	if err != nil {
		return nil, fmt.Errorf("service: dial: %w", err)
	}
	if err := wire.WriteFrame(conn, open); err != nil {
		conn.Close()
		return nil, err
	}
	r := wire.NewReader(conn)
	body, err := r.ReadBody()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("service: admission read: %w", err)
	}
	f, _, _, err := wire.DecodeBodySession(body, nil)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("service: admission decode: %w", err)
	}
	switch m := f.(type) {
	case *wire.SessionAccept:
		return &Client{session: m.Session, tenant: m.Tenant, ctrl: conn, r: r}, nil
	case *wire.SessionReject:
		conn.Close()
		return nil, &RejectError{Tenant: m.Tenant, Reason: m.Reason}
	default:
		conn.Close()
		return nil, fmt.Errorf("service: admission answered with frame type %d", f.Type())
	}
}

// Session returns the granted session ID, which node clients put in
// Config.Session.
func (c *Client) Session() uint32 { return c.session }

// Wait blocks until the service finishes the session and returns the
// reconstructed report. Transport statistics are zero by design; see
// reportFromWire. The control connection is closed when Wait returns,
// whether or not it succeeded.
func (c *Client) Wait() (*cluster.Report, error) {
	defer c.ctrl.Close()
	body, err := c.r.ReadBody()
	if err != nil {
		return nil, fmt.Errorf("service: report read: %w", err)
	}
	f, _, _, err := wire.DecodeBodySession(body, nil)
	if err != nil {
		return nil, fmt.Errorf("service: report decode: %w", err)
	}
	sr, ok := f.(*wire.SessionReport)
	if !ok {
		return nil, fmt.Errorf("service: report answered with frame type %d", f.Type())
	}
	if sr.Session != c.session {
		return nil, fmt.Errorf("service: report for session %d on session %d", sr.Session, c.session)
	}
	return reportFromWire(sr), nil
}

// Close hangs up the control connection before the session decided — the
// explicit-close signal; the service finalizes the session through the
// quorum fallback and reclaims its state.
func (c *Client) Close() error { return c.ctrl.Close() }

// OpenFrame builds the SessionOpen for running nw under cfg: the rule
// shape is recovered from the network's decision rule. It errors on rules
// the wire protocol cannot name. The trailing bool is ignored; it remains
// so existing callers keep compiling.
func OpenFrame(cfg cluster.Config, nw *zeroround.Network, tenant uint32, _ bool) (*wire.SessionOpen, error) {
	open := &wire.SessionOpen{
		Tenant: tenant,
		K:      uint32(nw.K()),
		Trials: uint32(cfg.Trials),
		Seed:   cfg.BaseSeed,
	}
	switch r := nw.Rule().(type) {
	case zeroround.ANDRule:
		open.Rule = wire.RuleAND
	case zeroround.ThresholdRule:
		open.Rule = wire.RuleThreshold
		open.Thresh = uint32(r.T)
	default:
		return nil, fmt.Errorf("service: rule %q has no wire encoding", nw.Rule().Name())
	}
	return open, nil
}

// Submit is the full client side of one session: open it, run one node
// client per network node against the service (frames stamped with the
// granted session), and wait for the report. It is the service-transport
// analogue of cluster.RunPipe/RunTCP — same cfg, same network, same
// deterministic vote streams — which is what the differential tests
// compare against. When a node failed, Submit returns the report with the
// lowest-numbered failing node's error, as cluster.StartNodes reports it.
func Submit(dial func() (net.Conn, error), cfg cluster.Config, nw *zeroround.Network, d dist.Distribution, plan *cluster.FaultPlan, tenant uint32) (*cluster.Report, error) {
	open, err := OpenFrame(cfg, nw, tenant, false)
	if err != nil {
		return nil, err
	}
	c, err := Open(dial, open)
	if err != nil {
		return nil, err
	}
	ncfg := cfg
	ncfg.Session = c.Session()
	wait := cluster.StartNodes(ncfg, nw, d, plan, func(int) func() (net.Conn, error) { return dial })
	rep, werr := c.Wait()
	nodeErr := wait()
	if werr != nil {
		return nil, werr
	}
	return rep, nodeErr
}
