package workload

import (
	"cgct/internal/addr"
	"cgct/internal/rng"
)

// lineBytes is the architectural cache-line size the generators assume
// (matches Table 3's 64-byte lines).
const lineBytes = 64

// pageBytes is the OS page size used by the DCBZ page-zeroing block.
const pageBytes = 4096

// instrsPerILine is how many (4-byte) instructions fit one I-cache line.
const instrsPerILine = lineBytes / 4

// activity is a composable access-pattern block. Each call to emit appends
// a burst of operations to the engine's queue.
type activity interface {
	emit(e *engine)
}

// weighted pairs an activity with its selection weight within a phase.
type weighted struct {
	act    activity
	weight float64
}

// phase is a stretch of a benchmark's execution with its own activity mix
// (TPC-H's scan/merge phases, for example).
type phase struct {
	// frac is the fraction of the trace this phase occupies.
	frac float64
	mix  []weighted
	// total caches the summed weights.
	total float64
}

// codeWalker models the instruction stream: sequential fetch through a
// code footprint with occasional jumps, a hot loop body and colder
// surrounding code. It emits one OpIFetch per I-line crossing.
type codeWalker struct {
	seg      addr.Segment // full code footprint (shared, read-only)
	hot      addr.Segment // hot loop body (subset)
	pos      uint64       // byte offset into seg
	jumpProb float64      // probability a line crossing is a jump
	hotProb  float64      // probability a jump lands in the hot body
	budget   float64      // instructions executed since last I-line fetch
}

func (c *codeWalker) fetch(r *rng.Source) addr.Addr {
	if r.Bool(c.jumpProb) {
		if r.Bool(c.hotProb) && c.hot.Size > 0 {
			c.pos = uint64(c.hot.Base) - uint64(c.seg.Base) + r.Uint64n(c.hot.Size)
		} else {
			c.pos = r.Uint64n(c.seg.Size)
		}
	} else {
		c.pos += lineBytes
	}
	if c.seg.Size > 0 {
		c.pos %= c.seg.Size
	}
	return c.seg.At(c.pos)
}

// engine drives one processor's trace: it interleaves the data-activity
// bursts of the current phase with instruction fetches implied by the
// accumulated instruction gaps.
type engine struct {
	r         *rng.Source
	remaining int
	phases    []phase
	phaseEnds []int // remaining-ops threshold at which each phase ends
	phaseIdx  int
	queue     []Op
	qHead     int
	code      codeWalker
	gapDenom  float64 // rng.GeometricDenom of the mean non-memory instructions between data ops
	pendGap   uint64  // instruction budget not yet attributed to an op
}

// newEngine builds an engine for opsPerProc operations.
func newEngine(r *rng.Source, opsPerProc int, meanGap float64, code codeWalker, phases []phase) *engine {
	e := &engine{
		r:         r,
		remaining: opsPerProc,
		phases:    phases,
		code:      code,
		gapDenom:  rng.GeometricDenom(meanGap),
	}
	for i := range e.phases {
		var tot float64
		for _, w := range e.phases[i].mix {
			tot += w.weight
		}
		e.phases[i].total = tot
	}
	// Precompute phase boundaries in ops-emitted space.
	acc := 0.0
	e.phaseEnds = make([]int, len(phases))
	for i, p := range phases {
		acc += p.frac
		e.phaseEnds[i] = int(acc * float64(opsPerProc))
	}
	if len(e.phaseEnds) > 0 {
		e.phaseEnds[len(e.phaseEnds)-1] = opsPerProc
	}
	return e
}

// push queues a data op, attaching a geometric instruction gap.
func (e *engine) push(kind OpKind, a addr.Addr) {
	gap := e.r.GeometricWith(e.gapDenom)
	e.queue = append(e.queue, Op{Kind: kind, Addr: a, Gap: uint32(gap)})
}

// pushGap queues a data op with an explicit gap (tight loops).
func (e *engine) pushGap(kind OpKind, a addr.Addr, gap uint32) {
	e.queue = append(e.queue, Op{Kind: kind, Addr: a, Gap: gap})
}

// Next implements Generator.
func (e *engine) Next() (Op, bool) {
	for {
		if e.qHead < len(e.queue) {
			op := e.queue[e.qHead]
			e.qHead++
			e.remaining--
			if op.Kind != OpIFetch {
				// Instruction fetches implied by this op's gap (plus the
				// memory instruction itself).
				e.code.budget += float64(op.Gap) + 1
				if e.code.budget >= instrsPerILine {
					e.code.budget -= instrsPerILine
					// Queue the I-fetch ahead of upcoming data ops.
					e.queue = append(e.queue, Op{}) // grow
					copy(e.queue[e.qHead+1:], e.queue[e.qHead:])
					e.queue[e.qHead] = Op{Kind: OpIFetch, Addr: e.code.fetch(e.r), Gap: 0}
				}
			}
			return op, true
		}
		if e.remaining <= 0 {
			return Op{}, false
		}
		// Refill: select the current phase and one of its activities.
		e.queue = e.queue[:0]
		e.qHead = 0
		emitted := e.totalOps() - e.remaining
		for e.phaseIdx < len(e.phaseEnds)-1 && emitted >= e.phaseEnds[e.phaseIdx] {
			e.phaseIdx++
		}
		p := &e.phases[e.phaseIdx]
		pick := e.r.Float64() * p.total
		for _, w := range p.mix {
			pick -= w.weight
			if pick <= 0 {
				w.act.emit(e)
				break
			}
		}
		if e.qHead >= len(e.queue) && e.remaining > 0 && len(p.mix) > 0 {
			// Defensive: an activity emitted nothing; emit a filler load so
			// the stream always terminates.
			p.mix[0].act.emit(e)
			if e.qHead >= len(e.queue) {
				return Op{}, false
			}
		}
	}
}

func (e *engine) totalOps() int {
	if len(e.phaseEnds) == 0 {
		return e.remaining
	}
	return e.phaseEnds[len(e.phaseEnds)-1]
}

// ---------------------------------------------------------------------------
// Activity blocks
// ---------------------------------------------------------------------------

// streamer walks sequentially through a segment, touching every line of a
// run and optionally storing to it — the backbone of scientific array
// sweeps, database scans and memory-copying system code. Sequential runs
// are what give CGCT its region locality: after the first line of a region
// misses, the remaining lines hit the now-exclusive region.
type streamer struct {
	seg       addr.Segment
	pos       uint64 // current byte offset
	runLines  int    // lines touched per burst
	storeProb float64
	reuseProb float64 // probability of re-reading a recently touched line
	accPerLn  int     // accesses per line (loads)
	gap       float64 // overrides engine mean gap when > 0
}

func (s *streamer) emit(e *engine) {
	for i := 0; i < s.runLines; i++ {
		a := s.seg.At(s.pos)
		n := s.accPerLn
		if n <= 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			e.push(OpLoad, addr.Addr(uint64(a)+uint64(j*8)))
		}
		if e.r.Bool(s.storeProb) {
			e.push(OpStore, a)
		}
		if e.r.Bool(s.reuseProb) && s.pos >= lineBytes {
			e.push(OpLoad, s.seg.At(s.pos-lineBytes))
		}
		s.pos += lineBytes
		if s.pos >= s.seg.Size {
			s.pos = 0
		}
	}
}

// recordAccess touches variable-size records chosen by a Zipf distribution
// over a segment: the lines of the record are read in order and modified
// with some probability. Models database buffer pools, Java heaps and web
// server session state.
type recordAccess struct {
	seg        addr.Segment
	recBytes   uint64
	zipf       *rng.Zipf
	modifyProb float64 // probability the record access writes
	partial    bool    // touch only a prefix of the record's lines
	// chase marks dependent accesses (pointer-chasing index/heap walks):
	// each line's data is consumed immediately, exposing the full miss
	// latency instead of overlapping with the next miss.
	chase bool
}

func newRecordAccess(seg addr.Segment, recBytes uint64, skew, modifyProb float64, partial bool) *recordAccess {
	n := seg.Size / recBytes
	if n == 0 {
		n = 1
	}
	return &recordAccess{
		seg:        seg,
		recBytes:   recBytes,
		zipf:       rng.NewZipf(n, skew),
		modifyProb: modifyProb,
		partial:    partial,
	}
}

func (ra *recordAccess) emit(e *engine) {
	rec := ra.seg.Slot(ra.zipf.Sample(e.r), ra.recBytes)
	lines := int(ra.recBytes / lineBytes)
	if lines == 0 {
		lines = 1
	}
	if ra.partial && lines > 1 {
		lines = 1 + e.r.Intn(lines)
	}
	write := e.r.Bool(ra.modifyProb)
	for i := 0; i < lines; i++ {
		a := addr.Addr(uint64(rec.Base) + uint64(i)*lineBytes)
		e.push(OpLoad, a)
		if ra.chase {
			// Immediate dependent use of the loaded line.
			e.pushGap(OpLoad, addr.Addr(uint64(a)+8), 1)
		}
		if write {
			e.push(OpStore, a)
		}
	}
}

// interleavedPrivate models per-processor private records carved
// round-robin from a shared heap arena, the way multithreaded allocators
// hand out chunks: processor p owns slots p, p+n, p+2n, ... of grain bytes.
// The data is never actually shared — every access is processor-private —
// but two different processors' slots sit side by side within any region
// larger than the grain. This is what makes over-large regions lose
// exclusivity in the paper: with 512-byte slots, 512-byte regions stay
// exclusive while 1 KB regions keep bouncing between owners.
type interleavedPrivate struct {
	arena      addr.Segment
	self       int
	procs      int
	grain      uint64
	zipf       *rng.Zipf
	modifyProb float64
}

func newInterleavedPrivate(arena addr.Segment, self, procs int, grain uint64, skew, modifyProb float64) *interleavedPrivate {
	slots := arena.Size / (grain * uint64(procs))
	if slots == 0 {
		slots = 1
	}
	return &interleavedPrivate{
		arena:      arena,
		self:       self,
		procs:      procs,
		grain:      grain,
		zipf:       rng.NewZipf(slots, skew),
		modifyProb: modifyProb,
	}
}

func (ip *interleavedPrivate) emit(e *engine) {
	k := ip.zipf.Sample(e.r)
	// Rotate each processor's popularity ranking so that one processor's
	// hot slots sit next to another's cold slots: a miss on a lukewarm slot
	// then lands in a region whose neighbouring slot is resident in the
	// other processor's cache — the false region sharing that penalises
	// over-large regions.
	slots := ip.zipf.N()
	k = (k + uint64(ip.self)*(slots/uint64(ip.procs)+1)) % slots
	off := (k*uint64(ip.procs) + uint64(ip.self)) * ip.grain
	lines := int(ip.grain / lineBytes)
	if lines == 0 {
		lines = 1
	}
	n := 1 + e.r.Intn(lines)
	write := e.r.Bool(ip.modifyProb)
	for i := 0; i < n; i++ {
		a := ip.arena.At(off + uint64(i)*lineBytes)
		e.push(OpLoad, a)
		if write {
			e.push(OpStore, a)
		}
	}
}

// embeddedLock models heap objects that pack a contended header (latch,
// reference count, list links — touched by every processor) and the
// owner's private payload into the same kilobyte, as database pages and
// Java objects do. The header half of each object keeps bouncing between
// caches, so it is almost always resident — dirty — in some other
// processor's cache. With 512-byte regions the owner's payload half is its
// own region and goes exclusive; a 1 KB region glues it to the header and
// every payload miss needs a broadcast. This is the false region sharing
// that makes over-large regions lose in the paper.
type embeddedLock struct {
	arena     addr.Segment // 1 KB objects: [shared header 512B | owner payload 512B]
	self      int
	procs     int
	zipf      *rng.Zipf
	headStore float64 // store probability on the header (contention)
}

const embeddedObjBytes = 1024

func newEmbeddedLock(arena addr.Segment, self, procs int, skew, headStore float64) *embeddedLock {
	n := arena.Size / embeddedObjBytes
	if n == 0 {
		n = 1
	}
	return &embeddedLock{
		arena:     arena,
		self:      self,
		procs:     procs,
		zipf:      rng.NewZipf(n, skew),
		headStore: headStore,
	}
}

func (el *embeddedLock) emit(e *engine) {
	j := el.zipf.Sample(e.r)
	base := uint64(el.arena.Base) + j*embeddedObjBytes
	// Touch the shared header (first line): everyone does this.
	e.push(OpLoad, addr.Addr(base))
	if e.r.Bool(el.headStore) {
		e.push(OpStore, addr.Addr(base))
	}
	// The owner also works on the payload half of its own objects.
	if int(j)%el.procs == el.self {
		for i := 0; i < 8; i++ {
			a := addr.Addr(base + 512 + uint64(i)*lineBytes)
			e.push(OpLoad, a)
			if e.r.Bool(0.5) {
				e.push(OpStore, a)
			}
		}
	}
}

// hotLines models contended fine-grain shared data (locks, counters,
// scheduler queues): single-line accesses to a small hot set with a high
// store fraction. When the segment is shared, these keep regions
// externally dirty.
type hotLines struct {
	seg       addr.Segment
	nLines    int
	storeProb float64
	burst     int
}

func (h *hotLines) emit(e *engine) {
	n := h.burst
	if n <= 0 {
		n = 4
	}
	for i := 0; i < n; i++ {
		line := e.r.Intn(h.nLines)
		a := addr.Addr(uint64(h.seg.Base) + uint64(line)*lineBytes)
		e.push(OpLoad, a)
		if e.r.Bool(h.storeProb) {
			e.push(OpStore, a)
		}
	}
}

// migratory models objects that migrate between processors: read-all-lines
// then write-all-lines of a randomly chosen object from a shared pool.
// This is Barnes' bodies and OLTP row locks — the pattern that defeats
// region exclusivity and keeps CGCT's benefit small.
type migratory struct {
	pool     addr.Segment
	objBytes uint64
	objects  uint64
}

func (m *migratory) emit(e *engine) {
	obj := m.pool.Slot(e.r.Uint64n(m.objects), m.objBytes)
	lines := int(m.objBytes / lineBytes)
	if lines == 0 {
		lines = 1
	}
	for i := 0; i < lines; i++ {
		e.push(OpLoad, addr.Addr(uint64(obj.Base)+uint64(i)*lineBytes))
	}
	for i := 0; i < lines; i++ {
		e.push(OpStore, addr.Addr(uint64(obj.Base)+uint64(i)*lineBytes))
	}
}

// pageZero models AIX physical-page initialisation: DCBZ every line of a
// fresh page, then use part of the page privately (the dominant source of
// DCB operations in Figure 2).
type pageZero struct {
	pool    addr.Segment // this processor's private page pool
	nextPg  uint64
	useFrac float64 // fraction of the page's lines used after zeroing
}

func (p *pageZero) emit(e *engine) {
	pg := p.pool.Slot(p.nextPg, pageBytes)
	p.nextPg++
	linesPerPage := pageBytes / lineBytes
	for i := 0; i < linesPerPage; i++ {
		e.pushGap(OpDCBZ, addr.Addr(uint64(pg.Base)+uint64(i)*lineBytes), 2)
	}
	use := int(p.useFrac * float64(linesPerPage))
	for i := 0; i < use; i++ {
		a := addr.Addr(uint64(pg.Base) + uint64(i)*lineBytes)
		e.push(OpStore, a)
		e.push(OpLoad, a)
	}
}

// flusher emits occasional DCBF operations over a segment (I/O buffers
// being pushed out, database page cleaning).
type flusher struct {
	seg   addr.Segment
	pos   uint64
	burst int
}

func (f *flusher) emit(e *engine) {
	n := f.burst
	if n <= 0 {
		n = 4
	}
	for i := 0; i < n; i++ {
		e.pushGap(OpDCBF, f.seg.At(f.pos), 4)
		f.pos += lineBytes
	}
}

// stackChurn models very hot per-processor stack traffic: loads/stores to
// a tiny private segment. Almost always cache hits; provides realistic
// hit/miss ratios and instruction spacing.
type stackChurn struct {
	seg   addr.Segment
	depth int // lines in active frame window
	burst int
}

func (s *stackChurn) emit(e *engine) {
	n := s.burst
	if n <= 0 {
		n = 8
	}
	for i := 0; i < n; i++ {
		line := e.r.Intn(s.depth)
		a := addr.Addr(uint64(s.seg.Base) + uint64(line)*lineBytes)
		if e.r.Bool(0.4) {
			e.push(OpStore, a)
		} else {
			e.push(OpLoad, a)
		}
	}
}

// producerConsumer models one processor writing records that the others
// read shortly after (TPC-H's merge phase, pipeline parallelism). Each
// processor both produces into its own partition and consumes from the
// partitions of the others, so data is hot in a remote cache when read —
// broadcasts are genuinely necessary.
type producerConsumer struct {
	partitions []addr.Segment // one per processor
	self       int
	recBytes   uint64
	writePos   uint64
}

func newProducerConsumer(partitions []addr.Segment, self int, recBytes uint64) *producerConsumer {
	return &producerConsumer{
		partitions: partitions,
		self:       self,
		recBytes:   recBytes,
	}
}

func (pc *producerConsumer) emit(e *engine) {
	lines := int(pc.recBytes / lineBytes)
	if lines == 0 {
		lines = 1
	}
	// Produce one record into our own partition.
	rec := pc.partitions[pc.self].Slot(pc.writePos, pc.recBytes)
	pc.writePos++
	for i := 0; i < lines; i++ {
		e.push(OpStore, addr.Addr(uint64(rec.Base)+uint64(i)*lineBytes))
	}
	// Consume one record from a peer's partition. All processors progress
	// through the merge phase at the same rate, so our own write position
	// tracks the peer's: reading a small lag behind it lands on records
	// the peer wrote moments ago (hot in its cache).
	peer := e.r.Intn(len(pc.partitions))
	if peer == pc.self {
		peer = (peer + 1) % len(pc.partitions)
	}
	lag := uint64(1 + e.r.Intn(4))
	pos := uint64(0)
	if pc.writePos > lag {
		pos = pc.writePos - lag
	}
	rrec := pc.partitions[peer].Slot(pos, pc.recBytes)
	for i := 0; i < lines; i++ {
		e.push(OpLoad, addr.Addr(uint64(rrec.Base)+uint64(i)*lineBytes))
	}
}

// boundaryShare models SPLASH-2 grid codes: each processor streams its own
// partition, and a small fraction of accesses read the neighbouring
// processor's boundary rows (nearest-neighbour sharing).
type boundaryShare struct {
	neighbours []addr.Segment // boundary strips of adjacent processors
	pos        uint64
	runLines   int
}

func (b *boundaryShare) emit(e *engine) {
	if len(b.neighbours) == 0 {
		return
	}
	seg := b.neighbours[e.r.Intn(len(b.neighbours))]
	for i := 0; i < b.runLines; i++ {
		e.push(OpLoad, seg.At(b.pos))
		b.pos += lineBytes
	}
}
