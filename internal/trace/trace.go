// Package trace is the compiled trace engine: it materialises a
// workload's per-processor operation streams exactly once into a compact,
// immutable, columnar encoding and replays them through batched cursors,
// so a figures sweep that simulates the same (benchmark, processors, ops,
// seed) trace under many machine configurations pays trace synthesis once
// instead of once per variant, and the simulator's hot path refills a
// small op buffer from a contiguous slab instead of making one interface
// call per operation.
//
// Encoding: one slab per processor, two columns.
//
//   - kindGap: one uint64 per op, gap<<3 | kind (the op kind needs 3
//     bits; the instruction gap rides in the upper bits).
//   - deltas: one zigzag-varint per op of the address delta from the
//     previous op's address (starting from 0). Workload generators have
//     strong spatial locality, so deltas are small and the column
//     averages a few bytes per op — roughly half the footprint of the
//     equivalent []workload.Op.
//
// The process-wide shared cache (Get) keys traces by the parameters that
// generate them, and the versioned on-disk format (WriteFile / ReadFile)
// seals each file with its own digest. ContentHash identifies a trace by
// its encoded columns for tooling; it is computed on first use.
package trace

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"cgct/internal/addr"
	"cgct/internal/workload"
)

// ProcTrace is one processor's compiled op stream. It is immutable after
// compilation; any number of Cursors may replay it concurrently.
type ProcTrace struct {
	kindGap []uint64
	deltas  []byte
}

// Len returns the op count.
func (p *ProcTrace) Len() int { return len(p.kindGap) }

// Bytes returns the resident size of the two columns.
func (p *ProcTrace) Bytes() int64 {
	return int64(len(p.kindGap))*8 + int64(len(p.deltas))
}

// encoder appends ops to a ProcTrace under construction.
type encoder struct {
	pt   ProcTrace
	prev uint64
}

func newEncoder(opsHint int) *encoder {
	e := &encoder{}
	if opsHint > 0 {
		e.pt.kindGap = make([]uint64, 0, opsHint)
		e.pt.deltas = make([]byte, 0, 3*opsHint)
	}
	return e
}

func (e *encoder) add(op workload.Op) {
	e.pt.kindGap = append(e.pt.kindGap, uint64(op.Gap)<<3|uint64(op.Kind))
	e.pt.deltas = binary.AppendVarint(e.pt.deltas, int64(uint64(op.Addr))-int64(e.prev))
	e.prev = uint64(op.Addr)
}

// Cursor replays one ProcTrace as a workload.Source. The zero Cursor is
// not usable; obtain one from ProcTrace.Cursor.
type Cursor struct {
	t    *ProcTrace
	pos  int    // next op index
	off  int    // byte offset into the delta column
	prev uint64 // accumulated address
}

// Cursor returns a fresh replay cursor positioned at the first op.
func (p *ProcTrace) Cursor() *Cursor { return &Cursor{t: p} }

// Fill implements workload.Source: it decodes up to len(dst) ops and
// returns how many it wrote (0 once the trace is exhausted).
func (c *Cursor) Fill(dst []workload.Op) int {
	kg, deltas := c.t.kindGap, c.t.deltas
	n := 0
	for n < len(dst) && c.pos < len(kg) {
		w := kg[c.pos]
		d, sz := binary.Varint(deltas[c.off:])
		c.off += sz
		c.prev = uint64(int64(c.prev) + d)
		dst[n] = workload.Op{
			Kind: workload.OpKind(w & 7),
			Gap:  uint32(w >> 3),
			Addr: addr.Addr(c.prev),
		}
		c.pos++
		n++
	}
	return n
}

// Trace is a compiled workload: one immutable slab per processor plus the
// metadata the simulator needs (DMA target segments). A Trace is shared
// freely across concurrent simulations; Workload hands out fresh cursors.
type Trace struct {
	Name       string
	Procs      []ProcTrace
	DMATargets []addr.Segment

	// The content hash over the encoded columns, hex, computed on first
	// use: simulations never read it, and traces are shared across
	// goroutines.
	hashOnce sync.Once
	hash     string
}

// ContentHash returns the hex sha256 identity of the trace content
// (columns + DMA targets; independent of the benchmark name).
func (t *Trace) ContentHash() string {
	t.hashOnce.Do(func() { t.hash = computeHash(t) })
	return t.hash
}

// Bytes returns the total resident size of the compiled columns.
func (t *Trace) Bytes() int64 {
	var n int64
	for i := range t.Procs {
		n += t.Procs[i].Bytes()
	}
	return n
}

// Ops returns the total op count across processors.
func (t *Trace) Ops() int64 {
	var n int64
	for i := range t.Procs {
		n += int64(t.Procs[i].Len())
	}
	return n
}

// Workload wraps the trace in a workload.Workload with fresh batched
// cursors, ready for sim.New. The trace itself is not consumed; Workload
// may be called any number of times.
func (t *Trace) Workload() workload.Workload {
	srcs := make([]workload.Source, len(t.Procs))
	for i := range t.Procs {
		srcs[i] = t.Procs[i].Cursor()
	}
	return workload.Workload{Name: t.Name, Sources: srcs, DMATargets: t.DMATargets}
}

// compileBatch is the generator drain granularity during compilation;
// ctxCheckBatches paces context checks so a cancelled caller aborts a
// large compile within ~64K ops.
const (
	compileBatch    = 1024
	ctxCheckBatches = 64
)

type progressCtxKey struct{}

// WithProgress returns a context that makes FromWorkload report the
// number of ops encoded, batch by batch, to fn. Liveness watchdogs hook
// this so a job compiling a large trace is distinguishable from a
// stalled one before its first simulation event.
func WithProgress(ctx context.Context, fn func(ops int)) context.Context {
	return context.WithValue(ctx, progressCtxKey{}, fn)
}

func progressFrom(ctx context.Context) func(ops int) {
	fn, _ := ctx.Value(progressCtxKey{}).(func(ops int))
	return fn
}

// Compile builds the named benchmark's workload and compiles it. The ops
// hint from p sizes the columns up front; ctx aborts a long compilation
// early.
func Compile(ctx context.Context, benchmark string, p workload.Params) (*Trace, error) {
	w, err := workload.Build(benchmark, p)
	if err != nil {
		return nil, err
	}
	hint := p.OpsPerProc
	if hint <= 0 {
		hint = workload.DefaultOpsPerProc
	}
	return FromWorkload(ctx, w, hint)
}

// FromWorkload drains a workload's op streams into a compiled trace
// (the workload's generators are consumed). opsHint sizes the per-
// processor columns; 0 means unknown.
func FromWorkload(ctx context.Context, w workload.Workload, opsHint int) (*Trace, error) {
	t := &Trace{
		Name:       w.Name,
		Procs:      make([]ProcTrace, w.Procs()),
		DMATargets: w.DMATargets,
	}
	progress := progressFrom(ctx)
	var buf [compileBatch]workload.Op
	for i := range t.Procs {
		src := w.Source(i)
		enc := newEncoder(opsHint)
		for batch := 0; ; batch++ {
			if batch%ctxCheckBatches == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			n := src.Fill(buf[:])
			if n == 0 {
				break
			}
			for _, op := range buf[:n] {
				enc.add(op)
			}
			if progress != nil {
				progress(n)
			}
		}
		t.Procs[i] = enc.pt
	}
	return t, nil
}

// computeHash hashes the encoded columns and DMA targets. The kindGap
// words are folded through a fixed-size buffer so hashing stays cheap on
// multi-million-op traces.
func computeHash(t *Trace) string {
	h := sha256.New()
	var scratch [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	h.Write([]byte("cgct.trace.v1"))
	w64(uint64(len(t.Procs)))
	buf := make([]byte, 0, 8192)
	for i := range t.Procs {
		pt := &t.Procs[i]
		w64(uint64(len(pt.kindGap)))
		for _, w := range pt.kindGap {
			buf = binary.LittleEndian.AppendUint64(buf, w)
			if len(buf) >= 8192 {
				h.Write(buf)
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			h.Write(buf)
			buf = buf[:0]
		}
		w64(uint64(len(pt.deltas)))
		h.Write(pt.deltas)
	}
	w64(uint64(len(t.DMATargets)))
	for _, s := range t.DMATargets {
		w64(uint64(s.Base))
		w64(s.Size)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// String summarises the trace for tooling.
func (t *Trace) String() string {
	return fmt.Sprintf("%s: %d procs, %d ops, %d bytes compiled, hash %.12s",
		t.Name, len(t.Procs), t.Ops(), t.Bytes(), t.ContentHash())
}
