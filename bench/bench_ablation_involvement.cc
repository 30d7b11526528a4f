/**
 * @file
 * Ablation (extension beyond the paper): the sharper NonDiagonal
 * involvement policy vs the paper's per-operation rule, and dynamic
 * vs fixed chunk sizing. A qubit touched only by diagonal gates
 * provably holds no |1> weight, so the sharper rule prunes more on
 * diagonal-heavy circuits (iqp, qft, gs) at zero accuracy cost.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace qgpu;

int
main()
{
    bench::banner(
        "Ablation: involvement policy and dynamic chunking",
        "extension (design-choice ablation, see DESIGN.md)",
        "NonDiagonal <= PerOp everywhere; dynamic chunks help early "
        "pruning; fusion (extension) cuts passes on deep circuits");

    const int n = bench::sweepMaxQubits();
    TextTable table({"circuit", "per-op", "non-diagonal",
                     "fixed-chunks", "fused(w=4)",
                     "pruned_frac(non-diag)"});
    for (const auto &family : circuits::benchmarkNames()) {
        const Circuit c = circuits::makeBenchmark(family, n);

        Machine m1 = bench::machineFor(n);
        ExecOptions per_op = harness::benchOptions();
        per_op.recordTrace = true;
        const RunResult r1 = harness::runOn("qgpu", m1, c, per_op);
        bench::maybeEmitPhaseCsv(r1, family, n);

        Machine m2 = bench::machineFor(n);
        ExecOptions sharp = harness::benchOptions();
        sharp.involvement = InvolvementPolicy::NonDiagonal;
        const RunResult r2 = harness::runOn("qgpu", m2, c, sharp);

        Machine m3 = bench::machineFor(n);
        ExecOptions fixed = harness::benchOptions();
        fixed.dynamicChunks = false;
        const RunResult r3 = harness::runOn("qgpu", m3, c, fixed);

        Machine m4 = bench::machineFor(n);
        ExecOptions fused = harness::benchOptions();
        fused.fuseWidth = 4;
        const RunResult r4 = harness::runOn("qgpu", m4, c, fused);

        const double pruned =
            r2.stats.get(statkeys::chunksPruned) /
            (r2.stats.get(statkeys::chunksPruned) +
             r2.stats.get(statkeys::chunksProcessed));
        table.addRow(
            {family + "_" + std::to_string(bench::paperQubits(n)),
             TextTable::num(r1.totalTime, 1),
             TextTable::num(r2.totalTime, 1),
             TextTable::num(r3.totalTime, 1),
             TextTable::num(r4.totalTime, 1),
             TextTable::num(pruned, 3)});
    }
    std::printf("%s\n", table.toString().c_str());
    return 0;
}
