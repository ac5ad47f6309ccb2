package sim

import (
	"context"
	"errors"
	"testing"

	"cgct/internal/addr"
	"cgct/internal/coherence"
	"cgct/internal/config"
	"cgct/internal/core"
	"cgct/internal/stats"
)

// TestFilteredScansDebugChecked runs every configuration whose simulator
// scans are filtered the way the hardware filters its snoops — the
// directory oracle asks only the nodes the home entry implicates, the
// region snoop asks only the nodes whose RCA holds the region and answers
// from their entries' counts — with DebugChecks on, so each filtered
// answer is asserted equal to the full scan. Each case also checks that
// the path it exists for actually ran, and the emptySkip cases (snooping
// bus) that the simulator skipped the tag lookup of a holder with no
// cached lines.
func TestFilteredScansDebugChecked(t *testing.T) {
	dir16 := func(cgct bool, p config.DirectoryParams) config.Config {
		cfg := config.Default()
		if cgct {
			cfg = cfg.WithCGCT(512)
		}
		cfg = cfg.WithDirectory(p)
		cfg.Topology.Processors = 16
		return cfg
	}
	full := config.DirectoryParams{}
	limited := config.DirectoryParams{Scheme: config.DirSchemeLimited, Pointers: 2}
	sparse := config.DirectoryParams{MaxEntriesPerHome: 64}
	sectored := config.Default().WithCGCT(512)
	sectored.L2SectorBytes = 512
	regionPrefetch := config.Default().WithCGCT(512)
	regionPrefetch.Proc.RegionPrefetch = true
	scaledBack := regionPrefetch
	scaledBack.RCA.ThreeState = true

	overflows := func(r *stats.Run) bool { return r.DirPtrOverflows > 0 }
	evictions := func(r *stats.Run) bool { return r.DirEntriesEvicted > 0 }
	notifies := func(r *stats.Run) bool { return r.DirRegionNotifies > 0 }
	probes := func(r *stats.Run) bool { return r.RegionProbes > 0 }
	snoopFiltered := func(r *stats.Run) bool { return r.SnoopTagFiltered > 0 }
	cases := []struct {
		name      string
		cfg       config.Config
		bench     string
		procs     int
		ops       int
		ran       func(*stats.Run) bool // the filtered path was exercised
		emptySkip bool
	}{
		{"dir16-fullmap", dir16(false, full), "tpc-b", 16, 4_000, func(r *stats.Run) bool { return r.ThreeHops > 0 }, false},
		{"dir16-fullmap-cgct", dir16(true, full), "tpc-b", 16, 4_000, notifies, false},
		{"dir16-limited", dir16(false, limited), "specjbb2000", 16, 4_000, overflows, false},
		{"dir16-limited-cgct", dir16(true, limited), "specjbb2000", 16, 4_000, overflows, false},
		{"dir16-sparse", dir16(false, sparse), "tpc-b", 16, 4_000, evictions, false},
		{"dir16-sparse-cgct", dir16(true, sparse), "tpc-b", 16, 4_000, evictions, false},
		{"snoop-cgct-256", config.Default().WithCGCT(256), "tpc-w", 4, 25_000, snoopFiltered, true},
		{"snoop-cgct-1k", config.Default().WithCGCT(1024), "tpc-w", 4, 25_000, snoopFiltered, true},
		{"snoop-sectored-cgct", sectored, "specweb99", 4, 25_000, snoopFiltered, true},
		{"snoop-region-prefetch", regionPrefetch, "ocean", 4, 25_000, probes, true},
		{"snoop-scaled-back", scaledBack, "ocean", 4, 25_000, probes, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := MustNew(c.cfg, testWorkload(t, c.bench, c.procs, c.ops, 5), 5)
			s.DebugChecks = true
			run, err := s.RunContext(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !c.ran(run) {
				t.Errorf("%s: the filtered path never ran", c.name)
			}
			if c.emptySkip && s.emptyHolderSkips == 0 {
				t.Errorf("%s: no holder with zero cached lines was ever skipped", c.name)
			}
		})
	}
}

// expectViolation runs fn and requires it to raise the named invariant.
func expectViolation(t *testing.T, check string, fn func()) {
	t.Helper()
	defer func() {
		var ie *coherence.InvariantError
		if r := recover(); r == nil {
			t.Fatalf("no %s violation raised", check)
		} else if err, ok := r.(error); !ok || !errors.As(err, &ie) || ie.Check != check {
			t.Fatalf("raised %v, want a %s violation", r, check)
		}
	}()
	fn()
}

// plantStaleModifiable gives p1 a region entry and a cached line of it
// that went E→S with the restate hook bypassed, so the entry still counts
// the line modifiable while the cache holds it clean.
func plantStaleModifiable(s *System, line addr.LineAddr) {
	o := s.nodes[1]
	o.rca.Allocate(s.geom.RegionOfLine(line), core.RegionCI)
	o.l2.Allocate(line, coherence.Exclusive)
	o.l2.SetHooks(o.onL2Evict, o.onL2Allocate, nil)
	o.l2.SetState(line, coherence.Shared)
}

// TestFilterCrossChecksCatchDivergence plants a cached copy the filters
// cannot see — a line with no directory record, a region line with no
// RCA entry, a stale modifiable count — and requires the DebugChecks
// cross-check to flag the filtered answer.
func TestFilterCrossChecksCatchDivergence(t *testing.T) {
	line := addr.LineAddr(0x40000)

	cfg := config.Default().WithDirectory(config.DirectoryParams{})
	s := MustNew(cfg, testWorkload(t, "ocean", 4, 100, 1), 1)
	s.DebugChecks = true
	s.nodes[1].l2.Allocate(line, coherence.Shared)
	f := s.fabric.(*directoryFabric)
	expectViolation(t, "directory-oracle-filter", func() {
		f.remoteCopies(f.dirs[s.topo.HomeController(addr.Addr(line))].Peek(line), 0, line, 0)
	})

	cfg = config.Default().WithCGCT(512)
	s = MustNew(cfg, testWorkload(t, "ocean", 4, 100, 1), 1)
	s.DebugChecks = true
	s.nodes[1].l2.SetHooks(nil, nil, nil) // bypass the RCA line-count upkeep
	s.nodes[1].l2.Allocate(line, coherence.Modified)
	expectViolation(t, "region-snoop-filter", func() {
		s.observeRemoteRegion(0, s.geom.RegionOfLine(line))
	})

	// A holder whose line count says it caches nothing, but does.
	s = MustNew(cfg, testWorkload(t, "ocean", 4, 100, 1), 1)
	s.DebugChecks = true
	s.nodes[1].rca.Allocate(s.geom.RegionOfLine(line), core.RegionCI)
	s.nodes[1].l2.SetHooks(nil, nil, nil)
	s.nodes[1].l2.Allocate(line, coherence.Exclusive)
	expectViolation(t, "region-snoop-filter", func() {
		s.observeRemoteRegion(0, s.geom.RegionOfLine(line))
	})

	// A stale modifiable count, on both fabrics: the directory's home
	// transaction and the snooping bus's broadcast.
	s = MustNew(cfg.WithDirectory(config.DirectoryParams{}), testWorkload(t, "ocean", 4, 100, 1), 1)
	s.DebugChecks = true
	plantStaleModifiable(s, line)
	expectViolation(t, "region-snoop-filter", func() {
		s.observeRemoteRegion(0, s.geom.RegionOfLine(line))
	})
	s = MustNew(cfg, testWorkload(t, "ocean", 4, 100, 1), 1)
	s.DebugChecks = true
	plantStaleModifiable(s, line)
	expectViolation(t, "region-snoop-filter", func() {
		s.fabric.(*snoopFabric).performBroadcast(s.nodes[0], coherence.ReqRead, line+64, s.geom.RegionOfLine(line), 0, false)
	})
}
