/**
 * @file
 * Quickstart: build a GHZ circuit, simulate it with the full Q-GPU
 * engine on a scaled P100 machine, sample measurement outcomes, and
 * print the engine's virtual-time report.
 *
 * Run:  ./quickstart [num_qubits]
 */

#include <cstdio>
#include <cstdlib>

#include "harness/experiment.hh"
#include "statevec/measure.hh"

using namespace qgpu;

int
main(int argc, char **argv)
{
    const int n = argc > 1 ? std::atoi(argv[1]) : 12;
    if (n < 2 || n > 24) {
        std::fprintf(stderr, "usage: %s [qubits in 2..24]\n",
                     argv[0]);
        return 1;
    }

    // 1. Build a circuit with the fluent builder API.
    Circuit ghz(n, "ghz");
    ghz.h(0);
    for (int q = 0; q + 1 < n; ++q)
        ghz.cx(q, q + 1);

    // 2. Build a machine: one P100 whose memory holds 1/16 of the
    //    state, so the engine actually streams chunks.
    Machine machine = machines::makeScaled(n);

    // 3. Run the full Q-GPU recipe (overlap + pruning + reordering +
    //    compression).
    const RunResult result = harness::runOn("qgpu", machine, ghz);

    std::printf("engine: %s\n", result.engine.c_str());
    std::printf("virtual execution time: %.3f s "
                "(at 34-qubit-equivalent scale)\n\n",
                result.totalTime);

    // 4. Inspect the final state.
    std::printf("|<0...0|psi>|^2 = %.4f, |<1...1|psi>|^2 = %.4f\n",
                std::norm(result.state[0]),
                std::norm(result.state[result.state.size() - 1]));

    Rng rng(2026);
    const auto counts = sampleCounts(result.state, 1000, rng);
    std::printf("1000 shots:\n");
    for (const auto &[outcome, count] : counts)
        std::printf("  %0*llx: %llu\n", (n + 3) / 4,
                    static_cast<unsigned long long>(outcome),
                    static_cast<unsigned long long>(count));

    // 5. The per-phase virtual-time breakdown.
    std::printf("\nstats:\n%s", result.stats.toString().c_str());
    return 0;
}
