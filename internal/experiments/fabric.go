package experiments

import (
	"context"

	"cgct"
)

// FabricRow compares the three coherence fabrics on one benchmark: the
// snooping baseline, CGCT (512 B regions), and a full-map directory — the
// comparison the paper's introduction frames ("much of the benefit of a
// directory-based system ... without the disadvantage of three-hop
// cache-to-cache transfers").
type FabricRow struct {
	Benchmark  string
	Processors int
	// Run-time reduction over the snooping baseline, %. DirCGCT is the
	// directory fabric with an RCA on top — the same region protocol
	// routing requests around the home pipeline instead of around the bus.
	CGCT, Scout, Directory, DirCGCT float64
	// Cache-to-cache transfers: two-hop under snooping/CGCT, three-hop
	// under the directory.
	CGCTC2C, DirThreeHops uint64
	// Address-fabric load: broadcasts (snooping) vs point-to-point
	// messages (directory, with and without CGCT).
	BaseBroadcasts, CGCTBroadcasts, DirMessages, DirCGCTMessages uint64
	// Home transactions CGCT's region protocol kept out of the directory
	// pipeline entirely.
	DirFastPaths uint64
}

// Fabric runs the three-way comparison at the given processor counts
// (e.g. 4 and 16 — at four processors every hop is cheap and the
// directory's home-indirection hardly costs anything; at sixteen, remote
// boards make the third hop expensive).
func Fabric(p Params, processorCounts []int) []FabricRow {
	p = p.withDefaults()
	if len(processorCounts) == 0 {
		processorCounts = []int{4, 16}
	}
	// The five fabric variants of one (benchmark, procs, seed) workload
	// replay the same shared compiled trace; RunVariants runs them on the
	// worker pool.
	run := func(b string, procs int, seed uint64) [5]*cgct.Result {
		base := cgct.Options{
			OpsPerProc:    p.OpsPerProc,
			Seed:          seed,
			Processors:    procs,
			PerturbCycles: 40,
		}
		variants := [5]cgct.Options{base, base, base, base, base}
		variants[1].CGCT, variants[1].RegionBytes = true, 512
		variants[2].RegionScout, variants[2].RegionBytes = true, 512
		variants[3].Directory = true
		variants[4].Directory, variants[4].CGCT, variants[4].RegionBytes = true, true, 512
		res, err := cgct.RunVariants(context.Background(), b, variants[:])
		if err != nil {
			panic(err)
		}
		return [5]*cgct.Result{res[0], res[1], res[2], res[3], res[4]}
	}
	var rows []FabricRow
	for _, procs := range processorCounts {
		for _, b := range p.sortedBenchmarks() {
			var cg, sc, dir, dirCG []float64
			var cgC2C, threeHop, baseB, cgB, dirMsg, dirCGMsg, fastPaths uint64
			for _, s := range p.Seeds {
				rs5 := run(b, procs, s)
				base, c, rs, d, dc := rs5[0], rs5[1], rs5[2], rs5[3], rs5[4]
				red := func(r *cgct.Result) float64 {
					return 100 * (float64(base.Cycles) - float64(r.Cycles)) / float64(base.Cycles)
				}
				cg = append(cg, red(c))
				sc = append(sc, red(rs))
				dir = append(dir, red(d))
				dirCG = append(dirCG, red(dc))
				cgC2C += c.CacheToCache
				threeHop += d.ThreeHops
				baseB += base.Broadcasts
				cgB += c.Broadcasts
				dirMsg += d.DirMessages
				dirCGMsg += dc.DirMessages
				fastPaths += dc.DirFastPaths
			}
			n := uint64(len(p.Seeds))
			rows = append(rows, FabricRow{
				Benchmark:  b,
				Processors: procs,
				CGCT:       mean(cg), Scout: mean(sc), Directory: mean(dir), DirCGCT: mean(dirCG),
				CGCTC2C: cgC2C / n, DirThreeHops: threeHop / n,
				BaseBroadcasts: baseB / n, CGCTBroadcasts: cgB / n,
				DirMessages: dirMsg / n, DirCGCTMessages: dirCGMsg / n,
				DirFastPaths: fastPaths / n,
			})
		}
	}
	return rows
}
