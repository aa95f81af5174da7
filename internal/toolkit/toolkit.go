// Package toolkit reimplements the stylised ways of using process groups
// that the ISIS toolkit packaged as ready-made tools: the coordinator-cohort
// pattern for reliable services, replicated data, distributed mutual
// exclusion, subdivided parallel computation, and distributed transactions.
//
// Every tool here runs over a flat group (internal/group). They serve two
// purposes in the reproduction: they are the "existing ISIS" baseline the
// paper's hierarchical groups are compared against (a flat coordinator-cohort
// service costs ~2n messages per request, which is experiment E1's baseline
// curve), and they demonstrate that the small-group programming model is
// preserved, since the hierarchical layer reuses the same patterns inside
// each leaf.
package toolkit

import (
	"context"
	"sync"
	"time"

	"repro/internal/group"
	"repro/internal/types"
)

// --- coordinator-cohort -----------------------------------------------------

// Service implements the coordinator-cohort tool over one flat group: a
// client's request is multicast to all members, the group coordinator
// executes it and answers the client, and the result is multicast to the
// cohorts so any of them can take over if the coordinator fails.
type Service struct {
	g       *group.Group
	handler func([]byte) []byte

	mu            sync.Mutex
	requestCopies int
	resultCopies  int
	handled       int
}

// Tag bytes distinguishing the two multicast flavours inside the group.
const (
	svcTagRequest byte = 1
	svcTagResult  byte = 2
)

// NewService wraps an existing group membership as a coordinator-cohort
// service executing handler. The group must have been created or joined
// with OnDeliver set to the value returned by Deliver (see FlatServer for
// the usual wiring).
func NewService(g *group.Group, handler func([]byte) []byte) *Service {
	return &Service{g: g, handler: handler}
}

// Deliver is the group OnDeliver hook: cohorts record request and result
// copies for takeover.
func (s *Service) Deliver(d group.Delivery) {
	if len(d.Payload) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch d.Payload[0] {
	case svcTagRequest:
		s.requestCopies++
	case svcTagResult:
		s.resultCopies++
	}
}

// Serve handles one client request at the coordinator: it multicasts the
// request to the group, executes the handler, replies to the client and
// multicasts the result. It is called by FlatServer's message handler and by
// tests; m must carry the request payload.
func (s *Service) Serve(ctx context.Context, m *types.Message, reply func(payload []byte, errStr string)) {
	if s.g.Coordinator() != s.g.Self() {
		reply(nil, "not the coordinator")
		return
	}
	_ = s.g.Cast(ctx, types.FIFO, append([]byte{svcTagRequest}, m.Payload...))
	result := s.handler(m.Payload)
	s.mu.Lock()
	s.handled++
	s.mu.Unlock()
	reply(result, "")
	_ = s.g.Cast(ctx, types.FIFO, append([]byte{svcTagResult}, result...))
}

// Counters returns (requests handled at the coordinator, request copies seen
// by this member, result copies seen by this member).
func (s *Service) Counters() (handled, requestCopies, resultCopies int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handled, s.requestCopies, s.resultCopies
}

// FlatServer exposes a coordinator-cohort Service to clients over the node's
// KindHRoute messages — the flat-group counterpart of the hierarchical
// request routing in internal/core. A core.Client (isis
// Process.NewServiceClient) is its client: the server ignores the request's
// group id. NewFlatServer takes the KindHRoute handler over from the
// process's core.Host, so that process cannot also serve a hierarchical
// service.
type FlatServer struct {
	svc *Service
}

// NewFlatServer wires a Service into the node message handler. Requests are
// forwarded to the group coordinator if they arrive at a cohort.
func NewFlatServer(svc *Service) *FlatServer {
	fs := &FlatServer{svc: svc}
	n := svc.g.Stack().Node()
	n.Handle(types.KindHRoute, func(m *types.Message) {
		coord := svc.g.Coordinator()
		if coord != n.PID() {
			fwd := m.Clone()
			if fwd.ReplyTo.IsNil() {
				fwd.ReplyTo = m.From
			}
			if err := n.Send(coord, fwd); err != nil {
				_ = n.Reply(m, nil, err.Error())
			}
			return
		}
		// The blocking casts inside Serve must not run on the actor
		// goroutine; hand the request to a worker.
		req := m.Clone()
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			svc.Serve(ctx, req, func(payload []byte, errStr string) {
				_ = n.Reply(req, payload, errStr)
			})
		}()
	})
	return fs
}
