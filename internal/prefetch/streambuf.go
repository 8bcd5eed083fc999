package prefetch

// StreamBuffers is a multi-way Jouppi stream-buffer prefetcher. A demand
// miss that no active stream covers allocates a stream starting at the next
// line; each stream runs ahead of the demand stream by up to depth lines.
// Streamed lines land in the shared prefetch buffer; a prefetch-buffer hit
// that falls inside a stream's window advances the stream and replenishes
// its credit, so a useful stream keeps running while a useless one starves
// and is eventually reallocated (the "reset" behaviour the paper discusses).
type StreamBuffers struct {
	port    port
	streams []stream
	depth   int

	// Allocations counts stream (re)allocations — the reset rate;
	// Advances counts useful-hit continuations.
	Allocations, Advances uint64
}

type stream struct {
	valid   bool
	next    uint64 // next line to request
	credit  int    // remaining lines this stream may fetch ahead
	lastUse int64  // LRU for reallocation
	base    uint64 // first line covered (for window membership)
}

// NewStreamBuffers creates numStreams stream buffers of the given depth.
func NewStreamBuffers(env Env, numStreams, depth int) *StreamBuffers {
	return &StreamBuffers{
		port:    port{env: env},
		streams: make([]stream, numStreams),
		depth:   depth,
	}
}

// Name implements Prefetcher.
func (s *StreamBuffers) Name() string { return "streambuf" }

// covers reports whether line falls in stream st's active window
// [base, next).
func (st *stream) covers(line uint64) bool {
	return st.valid && line >= st.base && line < st.next
}

// OnDemandAccess implements Prefetcher.
func (s *StreamBuffers) OnDemandAccess(lineAddr uint64, l1Hit, pfbHit bool, now int64) {
	if pfbHit {
		// First use of a streamed line: advance the owning stream.
		for i := range s.streams {
			st := &s.streams[i]
			if st.covers(lineAddr) {
				st.base = lineAddr + uint64(s.port.env.LineBytes)
				if st.credit < s.depth {
					st.credit++
				}
				st.lastUse = now
				s.Advances++
				return
			}
		}
		return
	}
	if l1Hit {
		return
	}
	// Full miss: if a stream already covers the next line, leave it be;
	// otherwise (re)allocate the LRU stream.
	next := lineAddr + uint64(s.port.env.LineBytes)
	for i := range s.streams {
		st := &s.streams[i]
		if st.covers(next) || (st.valid && st.next == next) {
			st.lastUse = now
			return
		}
	}
	victim := 0
	for i := range s.streams {
		if !s.streams[i].valid {
			victim = i
			break
		}
		if s.streams[i].lastUse < s.streams[victim].lastUse {
			victim = i
		}
	}
	s.streams[victim] = stream{valid: true, next: next, base: next, credit: s.depth, lastUse: now}
	s.Allocations++
}

// Tick implements Prefetcher: round-robin over streams with credit, one
// issue per idle bus slot.
func (s *StreamBuffers) Tick(now int64) {
	for i := range s.streams {
		st := &s.streams[i]
		if !st.valid || st.credit <= 0 {
			continue
		}
		switch s.port.tryIssue(st.next, now) {
		case issued:
			st.next += uint64(s.port.env.LineBytes)
			st.credit--
			return
		case busBusy:
			return
		default:
			// Already present/in flight: the stream still advances past
			// it so it can keep running ahead.
			st.next += uint64(s.port.env.LineBytes)
			st.credit--
		}
	}
}

// Idle implements Prefetcher: Tick only acts on streams holding credit,
// and credit-starved streams wait on demand traffic.
func (s *StreamBuffers) Idle() bool {
	for i := range s.streams {
		if s.streams[i].valid && s.streams[i].credit > 0 {
			return false
		}
	}
	return true
}

// OnSquash implements Prefetcher. Streams follow the demand stream, not
// predictions; a redirect simply changes future misses.
func (s *StreamBuffers) OnSquash() {}

// Reset implements Prefetcher: every stream deallocated, counters zeroed.
func (s *StreamBuffers) Reset() {
	clear(s.streams)
	s.Allocations, s.Advances = 0, 0
	s.port.stats = PortStats{}
}

// IssueStats implements Prefetcher.
func (s *StreamBuffers) IssueStats() PortStats { return s.port.stats }
