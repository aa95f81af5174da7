// Message stability and retransmission — the mechanism that turns the
// best-effort multicast fan-out into the reliable one classic virtual
// synchrony assumes (Birman & Joseph, SOSP 1987).
//
// Every member tracks, per sender, the contiguous prefix of casts it has
// received in the current view (the receive watermark) and buffers every
// received cast. Members piggyback their watermark vectors on outgoing casts
// and acknowledgements; the minimum across all members is the stability
// watermark — a cast below it is held by everyone, can never be needed for
// retransmission, and can never reappear as a genuinely new message, so the
// buffer (and the ordering engines' duplicate-suppression state) is pruned
// to the unstable suffix. Gaps above the watermark are repaired by NAKs: the
// receiver asks any live holder — not just the original sender — to
// retransmit the missing range, which is what recovers casts lost to random
// loss or healed partitions, and casts whose sender crashed mid-fanout.
package reliability

import (
	"time"

	"repro/internal/types"
)

// Config tunes the per-group reliability layer.
type Config struct {
	// NakTicks is how many NAK-timer ticks a gap must persist before the
	// first retransmission request is sent (a gap younger than one tick is
	// usually just out-of-order arrival). Zero selects 1.
	NakTicks int
	// NakInterval is the period of the per-group recovery timer driving
	// NAKs, order NAKs and stability reports. Zero selects 20ms.
	NakInterval time.Duration
	// StabilityTicks is how many NAK-timer ticks pass between standalone
	// stability reports while traffic is idle (reports also ride every
	// outgoing cast for free). Zero selects 3.
	StabilityTicks int
	// MaxRetransmit caps how many casts one NAK answer retransmits (the
	// requester re-asks for the rest once those land). Zero selects 128.
	MaxRetransmit int
	// StabilityFanout bounds how many members one standalone stability tick
	// reports to. Reports rotate round-robin over the view, so every member
	// still hears from every other member once per rotation, but an idle
	// n-member group costs O(n·fanout) messages per tick instead of O(n²) —
	// the term that would otherwise dominate large groups. Zero selects 4.
	StabilityFanout int
}

// WithDefaults fills zero fields with the default knob settings.
func (c Config) WithDefaults() Config {
	if c.NakTicks <= 0 {
		c.NakTicks = 1
	}
	if c.NakInterval <= 0 {
		c.NakInterval = 20 * time.Millisecond
	}
	if c.StabilityTicks <= 0 {
		c.StabilityTicks = 3
	}
	if c.MaxRetransmit <= 0 {
		c.MaxRetransmit = 128
	}
	if c.StabilityFanout <= 0 {
		c.StabilityFanout = 4
	}
	return c
}

// Stats counts the reliability layer's recovery work for one process (or,
// summed, one run). All counters are cumulative across views.
type Stats struct {
	// NaksSent counts retransmission requests sent for missing casts.
	NaksSent uint64
	// NaksServed counts casts retransmitted in answer to a NAK.
	NaksServed uint64
	// OrderNaksSent counts requests for missing ABCAST order announcements.
	OrderNaksSent uint64
	// OrderNaksServed counts order bindings re-sent in answer to one.
	OrderNaksServed uint64
	// Forwarded counts unstable casts re-multicast during view-change
	// flushes (flush forwarding).
	Forwarded uint64
	// Reannounced counts ABCAST bindings the new coordinator re-announced
	// (or freshly assigned) during sequencer failover.
	Reannounced uint64
	// StablePruned counts buffered casts released by stability advances.
	StablePruned uint64
	// Duplicates counts received casts rejected as already held.
	Duplicates uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.NaksSent += o.NaksSent
	s.NaksServed += o.NaksServed
	s.OrderNaksSent += o.OrderNaksSent
	s.OrderNaksServed += o.OrderNaksServed
	s.Forwarded += o.Forwarded
	s.Reannounced += o.Reannounced
	s.StablePruned += o.StablePruned
	s.Duplicates += o.Duplicates
}

// SeqRange is an inclusive range of missing per-sender sequence numbers.
type SeqRange struct {
	Sender types.ProcessID
	Lo, Hi uint64
}

// senderState is the per-sender receive and retransmit state within a view.
type senderState struct {
	ctg      uint64                    // contiguous receive watermark: 1..ctg all held
	stable   uint64                    // min ctg reported across members
	buf      map[uint64]*types.Message // every held cast with seq > stable
	maxSeen  uint64                    // highest seq received (gap detection)
	gapTicks int                       // consecutive timer ticks a gap has persisted
	nakRR    int                       // round-robin cursor over NAK targets
}

// Tracker is one group member's reliability state for one view. It is owned
// by the node's actor goroutine, like all per-group protocol state.
type Tracker struct {
	self    types.ProcessID
	members []types.ProcessID
	senders map[types.ProcessID]*senderState
	// reports holds the latest watermark vector and delivered ABCAST prefix
	// each member piggybacked; stability is their pointwise minimum.
	reports map[types.ProcessID]map[types.ProcessID]uint64
	ordRep  map[types.ProcessID]uint64
	stats   *Stats
}

// NewTracker creates the reliability state for one freshly installed view.
// stats may be shared across views (counters are cumulative).
func NewTracker(self types.ProcessID, members []types.ProcessID, stats *Stats) *Tracker {
	t := &Tracker{
		self:    self,
		members: types.CopyProcesses(members),
		senders: make(map[types.ProcessID]*senderState),
		reports: make(map[types.ProcessID]map[types.ProcessID]uint64),
		ordRep:  make(map[types.ProcessID]uint64),
		stats:   stats,
	}
	if t.stats == nil {
		t.stats = &Stats{}
	}
	return t
}

func (t *Tracker) sender(p types.ProcessID) *senderState {
	s, ok := t.senders[p]
	if !ok {
		s = &senderState{buf: make(map[uint64]*types.Message)}
		t.senders[p] = s
	}
	return s
}

// Note registers the receipt of one cast. It reports false for duplicates —
// casts already held (buffered or stable) — which is the receive-side
// duplicate filter the ordering engines' bounded memory relies on: a cast
// that passes Note is being seen for the first time in this view.
func (t *Tracker) Note(m *types.Message) bool {
	s := t.sender(m.ID.Sender)
	seq := m.ID.Seq
	if seq == 0 || seq <= s.stable || s.buf[seq] != nil {
		t.stats.Duplicates++
		return false
	}
	s.buf[seq] = m
	if seq > s.maxSeen {
		s.maxSeen = seq
	}
	for s.buf[s.ctg+1] != nil {
		s.ctg++
	}
	if s.ctg >= s.maxSeen {
		s.gapTicks = 0
	}
	return true
}

// Ctg returns the contiguous receive watermark for a sender.
func (t *Tracker) Ctg(p types.ProcessID) uint64 { return t.sender(p).ctg }

// CutVector returns the per-sender contiguous receive watermarks — the
// member's contribution to a flush's delivery cut. Unlike the max-seen
// watermark this layer replaced, every sequence in the vector is a cast this
// process actually holds, so a cut aggregated from these vectors is always
// satisfiable by forwarding.
func (t *Tracker) CutVector() map[types.ProcessID]uint64 {
	out := make(map[types.ProcessID]uint64, len(t.senders))
	for p, s := range t.senders {
		if s.ctg > 0 {
			out[p] = s.ctg
		}
	}
	return out
}

// StabVector encodes the member's current receive watermarks for
// piggybacking on outgoing casts and stability reports.
func (t *Tracker) StabVector() []types.StabEntry {
	out := make([]types.StabEntry, 0, len(t.senders))
	for p, s := range t.senders {
		if s.ctg > 0 {
			out = append(out, types.StabEntry{Sender: p, Seq: s.ctg})
		}
	}
	return out
}

// Report ingests one member's piggybacked stability report and advances the
// stability watermarks (pruning buffered casts that everyone now holds).
// ordDelivered is the member's delivered ABCAST prefix (StabOrd-1).
// Watermarks are monotone: a reordered (older) report can never regress
// them.
func (t *Tracker) Report(from types.ProcessID, vec []types.StabEntry, ordDelivered uint64) {
	rep := t.reports[from]
	if rep == nil {
		rep = make(map[types.ProcessID]uint64, len(vec))
		t.reports[from] = rep
	}
	for _, e := range vec {
		if e.Seq > rep[e.Sender] {
			rep[e.Sender] = e.Seq
		}
		// A peer holding more of a sender's traffic than we have ever seen
		// reveals casts we missed every copy of (the sender may be dead).
		// Raising maxSeen turns that knowledge into a NAKable gap, which is
		// what lets members converge on a crashed sender's tail even when no
		// view change (and hence no flush forwarding) occurs.
		if s := t.sender(e.Sender); e.Seq > s.maxSeen {
			s.maxSeen = e.Seq
		}
	}
	if ordDelivered > t.ordRep[from] {
		t.ordRep[from] = ordDelivered
	}
	t.advanceStability()
}

// advanceStability recomputes each sender's stability watermark as the
// minimum watermark across every view member (own state included) and prunes
// buffered casts at or below it.
func (t *Tracker) advanceStability() {
	for sender, s := range t.senders {
		min := s.ctg
		for _, m := range t.members {
			if m == t.self {
				continue
			}
			min2 := t.reports[m][sender]
			if min2 < min {
				min = min2
			}
		}
		for seq := s.stable + 1; seq <= min; seq++ {
			if s.buf[seq] != nil {
				delete(s.buf, seq)
				t.stats.StablePruned++
			}
		}
		if min > s.stable {
			s.stable = min
		}
	}
}

// Reported returns the highest receive watermark member has reported for
// sender's casts in this view — zero if member has never reported. The group
// layer resolves its cumulative acknowledgement waiters from it: a reported
// watermark of w means member holds every one of sender's casts 1..w, so one
// report acknowledges an entire prefix.
func (t *Tracker) Reported(member, sender types.ProcessID) uint64 {
	return t.reports[member][sender]
}

// StableOrd returns the group-wide stable ABCAST prefix — every member has
// delivered agreed slots 1..StableOrd — given this member's own delivered
// prefix. It is the minimum across all members, zero until every other
// member has reported; a sole member is trivially stable at its own prefix.
func (t *Tracker) StableOrd(own uint64) uint64 {
	min := own
	for _, m := range t.members {
		if m == t.self {
			continue
		}
		if v := t.ordRep[m]; v < min {
			min = v
		}
	}
	return min
}

// Advance re-runs the stability computation (pruning newly stable casts)
// without a fresh report; the recovery timer calls it so sole members and
// idle groups still converge.
func (t *Tracker) Advance() { t.advanceStability() }

// Stable returns the stability watermark for a sender.
func (t *Tracker) Stable(p types.ProcessID) uint64 { return t.sender(p).stable }

// SetFloor advances a sender's stability watermark to an externally computed
// floor, pruning the buffered casts at or below it. It is the pruning path
// for trackers that aggregate stability out of band — the treecast hop
// tracker learns its floor from the broadcast initiator's cumulative
// watermark rather than from per-member Reports — so it never consults
// t.members. The floor is clamped to the sender's own contiguous watermark:
// pruning past casts this member has not yet received would make Note
// misclassify them as duplicates when they finally arrive.
func (t *Tracker) SetFloor(sender types.ProcessID, floor uint64) {
	s := t.sender(sender)
	if floor > s.ctg {
		floor = s.ctg
	}
	if floor <= s.stable {
		return
	}
	for seq := s.stable + 1; seq <= floor; seq++ {
		if s.buf[seq] != nil {
			delete(s.buf, seq)
			t.stats.StablePruned++
		}
	}
	s.stable = floor
}

// Expect records that sender has issued casts up to seq without requiring a
// copy of any of them, turning knowledge learned out of band (a forwarded
// record's sequence number, a watermark in an acknowledgement) into a
// NAKable gap exactly as a peer's Report would.
func (t *Tracker) Expect(sender types.ProcessID, seq uint64) {
	s := t.sender(sender)
	if seq > s.maxSeen {
		s.maxSeen = seq
	}
}

// Bootstrap initialises a never-seen sender's watermarks at a baseline, so a
// member that joins mid-stream does not NAK for (or wait on) history that
// predates it. It applies only while the sender's state is completely fresh
// — after any Note, Report or Expect it is a no-op — and reports whether the
// baseline was applied.
func (t *Tracker) Bootstrap(sender types.ProcessID, seq uint64) bool {
	s := t.sender(sender)
	if s.ctg != 0 || s.stable != 0 || s.maxSeen != 0 || len(s.buf) != 0 {
		return false
	}
	s.ctg, s.stable, s.maxSeen = seq, seq, seq
	return true
}

// Missing returns the gaps in every sender's receive sequence — runs of
// sequence numbers between the contiguous watermark and the highest seen
// that are not buffered. These are the casts a NAK asks for.
func (t *Tracker) Missing() []SeqRange {
	var out []SeqRange
	for p, s := range t.senders {
		lo := uint64(0)
		for seq := s.ctg + 1; seq <= s.maxSeen; seq++ {
			if s.buf[seq] == nil {
				if lo == 0 {
					lo = seq
				}
				continue
			}
			if lo != 0 {
				out = append(out, SeqRange{Sender: p, Lo: lo, Hi: seq - 1})
				lo = 0
			}
		}
		if lo != 0 {
			out = append(out, SeqRange{Sender: p, Lo: lo, Hi: s.maxSeen})
		}
	}
	return out
}

// MissingBelow returns the casts absent below a per-sender target cut — what
// still has to be recovered before a pending view install's delivery cut is
// satisfied. Senders beyond the cut map are ignored.
func (t *Tracker) MissingBelow(cut map[types.ProcessID]uint64) []SeqRange {
	var out []SeqRange
	for p, target := range cut {
		if p == t.self {
			continue
		}
		s := t.sender(p)
		lo := uint64(0)
		for seq := s.ctg + 1; seq <= target; seq++ {
			if s.buf[seq] == nil {
				if lo == 0 {
					lo = seq
				}
				continue
			}
			if lo != 0 {
				out = append(out, SeqRange{Sender: p, Lo: lo, Hi: seq - 1})
				lo = 0
			}
		}
		if lo != 0 {
			out = append(out, SeqRange{Sender: p, Lo: lo, Hi: target})
		}
	}
	return out
}

// GapTick bumps and returns the per-tracker gap age for NAK pacing: the
// caller's recovery timer calls it once per tick, and a sender's gap is only
// NAKed once it has survived at least cfg.NakTicks consecutive ticks (fresh
// arrivals reset the age in Note). The age returned is the maximum across
// senders with gaps; zero means no gaps.
func (t *Tracker) GapTick() int {
	max := 0
	for _, s := range t.senders {
		if s.ctg < s.maxSeen {
			s.gapTicks++
			if s.gapTicks > max {
				max = s.gapTicks
			}
		} else {
			s.gapTicks = 0
		}
	}
	return max
}

// Retrieve returns the buffered casts for one missing range, capped at max.
// Any member may serve it: the buffer holds every unstable cast the member
// has received, not just its own.
func (t *Tracker) Retrieve(r SeqRange, max int) []*types.Message {
	s, ok := t.senders[r.Sender]
	if !ok {
		return nil
	}
	var out []*types.Message
	for seq := r.Lo; seq <= r.Hi && len(out) < max; seq++ {
		if m := s.buf[seq]; m != nil {
			out = append(out, m)
		}
	}
	return out
}

// Unstable returns every buffered cast not yet known stable, the set a
// survivor re-multicasts during a view-change flush (flush forwarding). The
// result is ordered per sender by sequence number.
func (t *Tracker) Unstable() []*types.Message {
	var out []*types.Message
	for _, s := range t.senders {
		for seq := s.stable + 1; seq <= s.maxSeen; seq++ {
			if m := s.buf[seq]; m != nil {
				out = append(out, m)
			}
		}
	}
	return out
}

// NakTarget picks the process to ask for a retransmission of sender's
// casts, rotating across the view on successive calls so a NAK eventually
// reaches a live holder: the original sender first (unless excluded), then
// every other member in view order. Excluded (suspected) processes are
// skipped; the zero process is returned when nobody qualifies.
func (t *Tracker) NakTarget(sender types.ProcessID, excluded func(types.ProcessID) bool) types.ProcessID {
	s := t.sender(sender)
	candidates := make([]types.ProcessID, 0, len(t.members)+1)
	if sender != t.self && (excluded == nil || !excluded(sender)) {
		candidates = append(candidates, sender)
	}
	for _, m := range t.members {
		if m == t.self || m == sender {
			continue
		}
		if excluded != nil && excluded(m) {
			continue
		}
		candidates = append(candidates, m)
	}
	if len(candidates) == 0 {
		return types.NilProcess
	}
	pick := candidates[s.nakRR%len(candidates)]
	s.nakRR++
	return pick
}

// Buffered returns how many casts the tracker currently holds — the
// O(unstable) quantity stability keeps bounded.
func (t *Tracker) Buffered() int {
	n := 0
	for _, s := range t.senders {
		n += len(s.buf)
	}
	return n
}

// Stats returns the tracker's (shared, cumulative) counters.
func (t *Tracker) Stats() Stats { return *t.stats }

// --- wire encoding ------------------------------------------------------------

// EncodeNak serialises a retransmission request's ranges.
func EncodeNak(ranges []SeqRange) []byte {
	b := types.EncodeUint64(nil, uint64(len(ranges)))
	for _, r := range ranges {
		b = types.EncodeUint64(b, uint64(r.Sender.Site))
		b = types.EncodeUint64(b, uint64(r.Sender.Incarnation))
		b = types.EncodeUint64(b, uint64(r.Sender.Index))
		b = types.EncodeUint64(b, r.Lo)
		b = types.EncodeUint64(b, r.Hi)
	}
	return b
}

// DecodeNak parses ranges serialised by EncodeNak.
func DecodeNak(b []byte) ([]SeqRange, bool) {
	n, b, ok := types.DecodeUint64(b)
	if !ok {
		return nil, false
	}
	out := make([]SeqRange, 0, n)
	for i := uint64(0); i < n; i++ {
		var site, inc, idx, lo, hi uint64
		if site, b, ok = types.DecodeUint64(b); !ok {
			return nil, false
		}
		if inc, b, ok = types.DecodeUint64(b); !ok {
			return nil, false
		}
		if idx, b, ok = types.DecodeUint64(b); !ok {
			return nil, false
		}
		if lo, b, ok = types.DecodeUint64(b); !ok {
			return nil, false
		}
		if hi, b, ok = types.DecodeUint64(b); !ok {
			return nil, false
		}
		out = append(out, SeqRange{
			Sender: types.ProcessID{Site: types.SiteID(site), Incarnation: uint32(inc), Index: uint32(idx)},
			Lo:     lo, Hi: hi,
		})
	}
	return out, true
}
