/**
 * @file
 * Figure 6: execution timelines showing how each optimization changes
 * the overlap structure. Rendered as ASCII charts (one row per
 * host/device engine) for the baseline, naive, overlap, pruning, and
 * full Q-GPU versions on gs.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace qgpu;

int
main()
{
    bench::banner(
        "Figure 6: timeline of each optimization",
        "Fig. 6 (timeline illustration)",
        "total shrinks version over version; transfers overlap "
        "bidirectionally from Overlap onward");

    const int n = bench::sweepMaxQubits() - 2;
    for (const char *engine :
         {"baseline", "naive", "overlap", "pruning", "qgpu"}) {
        Machine m = bench::machineFor(n);
        ExecOptions o = harness::benchOptions();
        o.recordTrace = true;
        const RunResult r = harness::runOn(
            engine, m, circuits::makeBenchmark("gs", n), o);
        bench::maybeEmitPhaseCsv(r, "gs", n);
        std::printf("--- %s (total %.1f s) ---\n", r.engine.c_str(),
                    r.totalTime);
        std::printf("%s\n", renderTimeline(r.trace, 96).c_str());
    }
    std::printf("legend: k=kernel, x=transfer, c=compress, "
                "d=decompress, u=host update\n");
    return 0;
}
