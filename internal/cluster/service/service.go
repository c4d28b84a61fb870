// Package service is the multi-tenant serving layer over the cluster
// runtime: one long-running process multiplexes many concurrent testing
// sessions — each an isolated referee with its own dedup bitsets, quorum
// state, EarlyDecider progress, journal stream and seed — over a single
// listener, without restarting between runs. This is the regime real
// distribution-testing services operate in: many independent (rule, seed,
// trials) queries against shared infrastructure, the explicit
// "multi-tenant aggregation service" step beyond the one-session-per-
// deployment runtimes of the flat star and the aggregation tree.
//
// A client opens a control connection and sends SessionOpen (tenant, rule
// shape, trials, seed); the service admits it — or rejects it
// with a typed reason when quotas or shape validation fail — and answers
// SessionAccept carrying the session ID. Node clients then connect exactly
// as they would to a solo referee, with every frame bound to that session
// by the frame's session field; an unbound (session 0) peer matches no
// session and is dropped. When the session decides, the service streams a
// SessionReport back on the control connection and broadcasts the verdict
// to the session's peers, then reclaims all per-session state.
//
// Fairness: peer connections are hosted on one shared cluster.Ingest, the
// read path solo referees use too. Each session's referee owns a bounded
// frame queue, and a fixed pool of serviceWorkers drains the queues
// round-robin with a per-turn quantum, so one hot tenant saturating its
// links cannot starve the other sessions' folds.
// Determinism is untouched by any of this: votes are pure functions of
// (seed, trial, node) and the fold is order-independent, so each
// multiplexed session reports byte-identical (sans transport stats) to
// its solo flat-star run — the package's headline differential test.
package service

import (
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/unifdist/unifdist/internal/cluster"
	"github.com/unifdist/unifdist/internal/obs"
	"github.com/unifdist/unifdist/internal/wire"
	"github.com/unifdist/unifdist/internal/zeroround"
)

// DefaultMaxSessions is the concurrent-session quota; see Config.
const DefaultMaxSessions = 16

// serviceWorkers sizes the ingest's fold worker pool that all sessions
// share.
const serviceWorkers = 4

// Config shapes one Service.
type Config struct {
	// MaxSessions bounds the concurrently open sessions (0 =
	// DefaultMaxSessions). Each session occupies one slot in [0,
	// MaxSessions); the slot index is the `session` label on /metrics, so
	// label cardinality is bounded by this quota, not by the unbounded
	// session-ID space.
	MaxSessions int
	// TenantBudget bounds a tenant's in-flight votes: the sum of k×trials
	// over the tenant's open sessions. A SessionOpen that would exceed it
	// is rejected with RejectBudget. 0 disables the budget.
	TenantBudget int
	// MaxK and MaxTrials cap a single session's shape (RejectShape).
	// MaxTrials is additionally clamped to wire.MaxReportTrials so the
	// final SessionReport always fits its frame cap; 0 means exactly that
	// clamp (and no K cap).
	MaxK      int
	MaxTrials int
	// Deadline bounds each session: a session still undecided this long
	// after admission expires and is finalized through the quorum
	// fallback. 0 = cluster.DefaultDeadline.
	Deadline time.Duration
	// Obs receives service and per-session metrics; nil disables
	// telemetry.
	Obs *obs.Registry
	// JournalDir, when non-empty, streams each session's lifecycle and
	// per-trial verdicts to <JournalDir>/session-<id>.jsonl.
	JournalDir string
}

func (c Config) maxSessions() int {
	if c.MaxSessions <= 0 {
		return DefaultMaxSessions
	}
	return c.MaxSessions
}

func (c Config) maxTrials() int {
	if c.MaxTrials <= 0 || c.MaxTrials > wire.MaxReportTrials {
		return wire.MaxReportTrials
	}
	return c.MaxTrials
}

func (c Config) deadline() time.Duration {
	if c.Deadline <= 0 {
		return cluster.DefaultDeadline
	}
	return c.Deadline
}

// Service is the session multiplexer. Build with New, run with Serve,
// stop with Close.
type Service struct {
	cfg Config
	reg *obs.Registry

	mu        sync.Mutex
	sessions  map[uint32]*session // by session ID
	slots     []*session          // by slot index; nil = free
	tenantUse map[uint32]int      // tenant → in-flight vote budget used
	nextID    uint32
	closed    bool
	l         net.Listener

	ing *cluster.Ingest // peer connections' read and fold path; set by Serve
	wg  sync.WaitGroup

	active   *obs.Gauge   // svc.sessions_active
	opened   *obs.Counter // svc.sessions_opened
	badConns *obs.Counter // svc.bad_conns: connections dropped before reaching a session
}

// New builds a service; it owns no transport until Serve.
func New(cfg Config) *Service {
	return &Service{
		cfg:       cfg,
		reg:       cfg.Obs,
		sessions:  map[uint32]*session{},
		slots:     make([]*session, cfg.maxSessions()),
		tenantUse: map[uint32]int{},
		active:    cfg.Obs.Gauge("svc.sessions_active"),
		opened:    cfg.Obs.Counter("svc.sessions_opened"),
		badConns:  cfg.Obs.Counter("svc.bad_conns"),
	}
}

// Serve accepts connections on l until the listener closes (normally via
// Close). Each connection self-identifies with its first frame:
// SessionOpen starts the admission handshake, Hello/AggHello joins an
// open session. Serve itself never blocks on a peer — per-connection
// reader goroutines feed the ingest's worker pool.
func (s *Service) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return fmt.Errorf("service: serve after Close")
	}
	s.l = l
	s.ing = cluster.NewIngest(serviceWorkers)
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return nil // listener closed: orderly shutdown
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// Close stops the service: the listener closes, every open session
// finalizes through the quorum fallback (reports still stream to their
// control connections), and Close blocks until all goroutines drained.
// It is idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	s.closed = true
	l, ing := s.l, s.ing
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	// Finish every session synchronously; finishing fires each session's
	// trigger, which releases its Decided waiter.
	for _, sess := range s.openSessions() {
		s.finishSession(sess, "service_close")
	}
	if ing != nil {
		ing.Close()
	}
	s.wg.Wait()
	return nil
}

// openSessions snapshots the open sessions in ascending session-ID order
// (map iteration order is not deterministic; shutdown must be).
func (s *Service) openSessions() []*session {
	s.mu.Lock()
	out := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// handleConn routes one accepted connection by its first frame.
func (s *Service) handleConn(conn net.Conn) {
	defer s.wg.Done()
	// Absolute read bound: an idle or stalled peer cannot hold its reader
	// past the session deadline plus a report-delivery grace.
	conn.SetReadDeadline(time.Now().Add(s.cfg.deadline() + time.Second)) //unifvet:allow wallclock connection-deadline safety net; verdicts depend only on which votes arrive
	r := wire.NewReader(conn)
	body, err := r.ReadBody()
	if err != nil {
		conn.Close()
		return
	}
	switch wire.BodyType(body) {
	case wire.TypeSessionOpen:
		var sc wire.DecodeScratch
		f, _, _, err := wire.DecodeBodySession(body, &sc)
		if err != nil {
			s.badConns.Inc()
			conn.Close()
			return
		}
		s.admit(conn, r, f.(*wire.SessionOpen))
	case wire.TypeHello, wire.TypeAggHello:
		// The opening frame's session field routes the peer; session 0 is
		// never assigned, so an unbound peer finds no session.
		s.mu.Lock()
		sess := s.sessions[wire.SessionOf(body)]
		s.mu.Unlock()
		if sess == nil {
			s.badConns.Inc()
			conn.Close()
			return
		}
		s.ing.Serve(sess.rf, conn, r, body)
	default:
		s.badConns.Inc()
		conn.Close()
	}
}

// admit runs the admission handshake for one SessionOpen: quota and
// shape checks in rejection-priority order, then session construction
// and the SessionAccept reply. The connection becomes the session's
// control connection: it receives the SessionReport when the session
// decides, and closing it early is the explicit-close signal.
func (s *Service) admit(conn net.Conn, r *wire.Reader, open *wire.SessionOpen) {
	reject := func(reason byte) {
		s.reg.Counter("svc.sessions_rejected." + wire.RejectReasonName(reason)).Inc()
		_ = wire.WriteFrame(conn, &wire.SessionReject{Tenant: open.Tenant, Reason: reason})
		conn.Close()
	}
	k, trials := int(open.K), int(open.Trials)
	if k < 1 || trials < 1 || trials > s.cfg.maxTrials() || (s.cfg.MaxK > 0 && k > s.cfg.MaxK) {
		reject(wire.RejectShape)
		return
	}
	var rule zeroround.Rule
	switch open.Rule {
	case wire.RuleAND:
		rule = zeroround.ANDRule{}
	case wire.RuleThreshold:
		if open.Thresh < 1 {
			reject(wire.RejectRule)
			return
		}
		rule = zeroround.ThresholdRule{T: int(open.Thresh)}
	default:
		reject(wire.RejectRule)
		return
	}
	cost := k * trials

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	slot := -1
	for i, occ := range s.slots {
		if occ == nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		s.mu.Unlock()
		reject(wire.RejectSessions)
		return
	}
	if s.cfg.TenantBudget > 0 && s.tenantUse[open.Tenant]+cost > s.cfg.TenantBudget {
		s.mu.Unlock()
		reject(wire.RejectBudget)
		return
	}
	id := s.allocID()
	sess := &session{id: id, slot: slot, tenant: open.Tenant, cost: cost, ctrl: conn}
	ccfg := cluster.Config{
		Trials:       trials,
		BaseSeed:     open.Seed,
		Deadline:     s.cfg.deadline(),
		Obs:          s.reg,
		Session:      id,
		MetricSuffix: fmt.Sprintf(";session=%d", slot),
	}
	sess.rf = cluster.NewReferee(k, rule, ccfg)
	// The session's one deadline timer, armed only now that sess.rf is set
	// and stopped by finishSession.
	sess.timer = time.AfterFunc(s.cfg.deadline(), func() { s.finishSession(sess, "expired") })
	s.sessions[id] = sess
	s.slots[slot] = sess
	s.tenantUse[open.Tenant] += cost
	s.mu.Unlock()

	s.active.Add(1)
	s.opened.Inc()
	s.openJournal(sess, open)
	if err := wire.WriteFrame(conn, &wire.SessionAccept{Session: id, Tenant: open.Tenant}); err != nil {
		s.finishSession(sess, "accept_write_failed")
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		<-sess.rf.Decided()
		s.finishSession(sess, "decided")
	}()
	// This goroutine stays as the control-connection watcher: the client
	// sends nothing further on it, so the next read returns only when the
	// session finished (finish closes the connection) or the client hung
	// up early — the explicit-close signal.
	if _, err := r.ReadBody(); err == nil {
		// Any further frame on the control connection is a protocol
		// violation; treat it as the close signal too.
		s.badConns.Inc()
	}
	s.finishSession(sess, "closed")
}

// allocID hands out the next nonzero, currently-unused session ID;
// callers hold s.mu.
func (s *Service) allocID() uint32 {
	for {
		s.nextID++
		if s.nextID == 0 {
			s.nextID = 1
		}
		if _, used := s.sessions[s.nextID]; !used {
			return s.nextID
		}
	}
}

// finishSession finalizes one session for reason — decided, closed,
// expired, service_close or accept_write_failed — and the first reason
// wins: quorum-decide the remaining trials, stream the SessionReport to
// the control connection, broadcast the verdict to the session's peers,
// flush the journal, and reclaim every per-session resource (deadline
// timer, slot, tenant budget, and the referee's ingest queue, which
// Finalize retires).
func (s *Service) finishSession(sess *session, reason string) {
	sess.finishOnce.Do(func() {
		s.mu.Lock()
		sess.timer.Stop()
		s.mu.Unlock()
		rep, sum, conns := sess.rf.Finalize()
		sess.ctrl.SetWriteDeadline(time.Now().Add(time.Second)) //unifvet:allow wallclock bounded best-effort report delivery on shutdown
		if buf, err := wire.AppendSessionReport(nil, reportFrame(sess.id, rep), wire.TraceContext{}); err == nil {
			_, _ = sess.ctrl.Write(buf)
		}
		sess.ctrl.Close()
		cluster.Broadcast(conns, &sum)
		s.closeJournal(sess, rep, reason)

		s.mu.Lock()
		delete(s.sessions, sess.id)
		s.slots[sess.slot] = nil
		s.tenantUse[sess.tenant] -= sess.cost
		if s.tenantUse[sess.tenant] <= 0 {
			delete(s.tenantUse, sess.tenant)
		}
		s.mu.Unlock()
		s.active.Add(-1)
		s.reg.Counter("svc.sessions_finished." + reason).Inc()
	})
}

// openJournal starts the session's JSONL stream when JournalDir is set.
func (s *Service) openJournal(sess *session, open *wire.SessionOpen) {
	if s.cfg.JournalDir == "" {
		return
	}
	j, err := obs.OpenJournal(filepath.Join(s.cfg.JournalDir, fmt.Sprintf("session-%d.jsonl", sess.id)))
	if err != nil {
		s.reg.Counter("svc.journal_errors").Inc()
		return
	}
	sess.journal = j
	j.Write(struct {
		Kind    string `json:"kind"`
		Session uint32 `json:"session"`
		Tenant  uint32 `json:"tenant"`
		K       uint32 `json:"k"`
		Trials  uint32 `json:"trials"`
		Seed    uint64 `json:"seed"`
		Rule    byte   `json:"rule"`
		Thresh  uint32 `json:"thresh,omitempty"`
	}{Kind: "session_open", Session: sess.id, Tenant: open.Tenant, K: open.K,
		Trials: open.Trials, Seed: open.Seed, Rule: open.Rule, Thresh: open.Thresh})
}

// closeJournal flushes the session's trial lines and end marker.
func (s *Service) closeJournal(sess *session, rep *cluster.Report, reason string) {
	j := sess.journal
	if j == nil {
		return
	}
	rep.WriteTrials(j)
	j.Write(struct {
		Kind    string `json:"kind"`
		Session uint32 `json:"session"`
		Reason  string `json:"reason"`
		Accepts int    `json:"accepts"`
		Missing int    `json:"missing_votes"`
	}{Kind: "session_end", Session: sess.id, Reason: reason,
		Accepts: rep.Accepts, Missing: rep.MissingVotes})
	j.Close()
}
