/**
 * @file
 * Table III: effectiveness of pruning and reordering on deep random
 * circuits - the Google-rules deep circuit (grqc) and two deep random
 * circuits. The paper reports 41.47% reduction on grqc_32 and ~17.7%
 * average on rqc_31/rqc_32 when going from Overlap to Reorder.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace qgpu;

int
main()
{
    bench::banner(
        "Table III: deep circuits, Overlap vs Reorder",
        "Table III (grqc_32, rqc_31, rqc_32)",
        "double-digit percentage reduction from pruning+reordering "
        "even on deep circuits");

    const int max = bench::sweepMaxQubits();
    struct Row
    {
        const char *family;
        int n;
        int cycles;
    };
    // grqc at the paper's 32-qubit point (our max-2), deep rqc at
    // max-3 and max-2.
    const Row rows[] = {
        {"grqc", max - 2, 0},
        {"rqc_deep", max - 3, 40},
        {"rqc_deep", max - 2, 40},
    };

    TextTable table({"circuit", "total_ops", "overlap_s", "reorder_s",
                     "reduction_%"});
    for (const Row &row : rows) {
        const Circuit c =
            row.cycles == 0
                ? circuits::grqc(row.n)
                : circuits::rqc(row.n, row.cycles, 11);
        Machine m1 = bench::machineFor(row.n);
        Machine m2 = bench::machineFor(row.n);
        ExecOptions o = harness::benchOptions();
        o.recordTrace = true;
        const RunResult overlap_run = harness::runOn("overlap", m1, c, o);
        const RunResult reorder_run = harness::runOn("reorder", m2, c, o);
        bench::maybeEmitPhaseCsv(overlap_run, c.name(), row.n);
        bench::maybeEmitPhaseCsv(reorder_run, c.name(), row.n);
        const double overlap = overlap_run.totalTime;
        const double reorder = reorder_run.totalTime;
        table.addRow(
            {c.name() + "_" +
                 std::to_string(bench::paperQubits(row.n)),
             std::to_string(c.numGates()),
             TextTable::num(overlap, 1), TextTable::num(reorder, 1),
             TextTable::num(100.0 * (1.0 - reorder / overlap), 2)});
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf("paper: grqc_32 41.47%%, rqc_31 17.99%%, rqc_32 "
                "17.39%%\n");
    return 0;
}
