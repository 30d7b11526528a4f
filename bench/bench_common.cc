#include "bench_common.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/thread_pool.hh"
#include "common/trace.hh"

namespace qgpu
{
namespace bench
{

int
sweepMaxQubits()
{
    if (const char *env = std::getenv("QGPU_BENCH_QUBITS")) {
        const int n = std::atoi(env);
        if (n >= 8 && n <= 26)
            return n;
    }
    return 14;
}

std::vector<int>
sweepQubits()
{
    const int max = sweepMaxQubits();
    return {max - 4, max - 3, max - 2, max - 1, max};
}

int
paperQubits(int n)
{
    return n + (34 - sweepMaxQubits());
}

Machine
machineFor(int n, DeviceSpec gpu, int num_gpus)
{
    // Fixed absolute device memory across the sweep: 1/16 of the
    // largest state, i.e. "16 GB against a 256 GB 34-qubit state".
    const int max = sweepMaxQubits();
    const double fraction =
        static_cast<double>(Index{1} << (max - n)) / 16.0;
    return machines::makeScaled(n, gpu, fraction, num_gpus,
                                paperQubits(n));
}

namespace
{

const std::vector<const char *> &
csvPhases()
{
    static const std::vector<const char *> names = {
        phases::h2d, phases::d2h, phases::compute, phases::compress,
        phases::hostCompute,
    };
    return names;
}

} // namespace

RunResult
run(const std::string &which, const std::string &family, int n,
    Machine &machine)
{
    ExecOptions o = harness::benchOptions();
    o.recordTrace = true;
    const RunResult result = harness::runOn(
        which, machine, circuits::makeBenchmark(family, n), o);
    maybeEmitPhaseCsv(result, family, n);
    return result;
}

void
maybeEmitPhaseCsv(const RunResult &result, const std::string &family,
                  int n)
{
    const char *path = std::getenv("QGPU_BENCH_TRACE");
    if (!path)
        return;
    std::ofstream out(path, std::ios::app);
    if (out.tellp() == 0)
        out << phaseCsvHeader() << "\n";
    out << phaseCsvRow(result, family, n) << "\n";
}

std::string
phaseCsvHeader()
{
    std::ostringstream os;
    os << "engine,family,qubits,total";
    for (const char *phase : csvPhases())
        os << ',' << phase << "_exposed," << phase << "_busy";
    return os.str();
}

std::string
phaseCsvRow(const RunResult &result, const std::string &family, int n)
{
    const auto totals = result.trace.phaseTotals();
    std::ostringstream os;
    os.precision(10);
    os << result.engine << ',' << family << ',' << n << ','
       << result.totalTime;
    for (const char *phase : csvPhases()) {
        const auto it = totals.find(phase);
        if (it == totals.end())
            os << ",0,0";
        else
            os << ',' << it->second.exposed << ','
               << it->second.busy;
    }
    return os.str();
}

void
banner(const std::string &title, const std::string &paper_ref,
       const std::string &expectation)
{
    std::printf("=== %s ===\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    std::printf("expected shape: %s\n", expectation.c_str());
    std::printf("(sweep point n stands for the paper's n+%d qubits; "
                "set QGPU_BENCH_QUBITS to rescale)\n\n",
                34 - sweepMaxQubits());
}

int
hardwareThreadsWithWarning(const std::string &tool)
{
    const int hw = ThreadPool::hardwareThreads();
    if (hw == 1)
        std::fprintf(
            stderr,
            "%s: warning: only one hardware thread; concurrent "
            "work is oversubscribed (modeled virtual times are "
            "unaffected, wall-clock numbers are not)\n",
            tool.c_str());
    return hw;
}

std::string
hardwareThreadsJson(int hw)
{
    std::string out =
        ", \"hardware_threads\": " + std::to_string(hw);
    if (hw == 1)
        out += ", \"warning\": \"oversubscribed\"";
    return out;
}

} // namespace bench
} // namespace qgpu
