#include "harness/experiment.hh"

#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/metrics.hh"

namespace qgpu
{
namespace harness
{

std::unique_ptr<ExecutionEngine>
makeEngine(const std::string &which, Machine &machine,
           ExecOptions base)
{
    if (which == "baseline")
        return makeVersion(Version::Baseline, machine, base);
    if (which == "naive")
        return makeVersion(Version::Naive, machine, base);
    if (which == "overlap")
        return makeVersion(Version::Overlap, machine, base);
    if (which == "pruning")
        return makeVersion(Version::Pruning, machine, base);
    if (which == "reorder")
        return makeVersion(Version::Reorder, machine, base);
    if (which == "qgpu")
        return makeVersion(Version::QGpu, machine, base);
    if (which == "cpu")
        return std::make_unique<CpuEngine>(machine, base);
    if (which == "qsim")
        return std::make_unique<QsimLikeEngine>(machine, base);
    if (which == "qdk")
        return std::make_unique<QdkLikeEngine>(machine, base);
    QGPU_FATAL("unknown engine '", which, "'");
}

RunResult
runOn(const std::string &which, Machine &machine,
      const Circuit &circuit, ExecOptions base)
{
    RunResult result = makeEngine(which, machine, base)->run(circuit);
    publishRunMetrics(result);
    return result;
}

void
publishRunMetrics(const RunResult &result)
{
    auto &registry = MetricsRegistry::global();
    registry.add("runs.total");
    registry.add("runs." + result.engine);
    if (!result.ok())
        registry.add("runs.failed");
    registry.observe("run.total_time", result.totalTime);
    registry.observe("run.wall_time", result.wallSeconds);
    registry.observe("run.bytes_h2d",
                     result.stats.get(statkeys::bytesH2d));
    registry.observe("run.bytes_d2h",
                     result.stats.get(statkeys::bytesD2h));
}

std::string
runReportJson(const RunResult &result)
{
    std::ostringstream os;
    os.precision(12);
    os << "{\"engine\": \"" << jsonEscape(result.engine)
       << "\", \"total_time\": " << result.totalTime
       << ", \"wall_seconds\": " << result.wallSeconds
       << ", \"stats\": {";
    bool first = true;
    for (const auto &name : result.stats.names()) {
        os << (first ? "" : ", ") << '"' << jsonEscape(name)
           << "\": " << result.stats.get(name);
        first = false;
    }
    os << "}, \"trace\": " << result.trace.toJson();
    if (!result.ok()) {
        const SimError &e = *result.error;
        os << ", \"error\": {\"code\": \""
           << simErrorCodeName(e.code) << "\", \"point\": \""
           << jsonEscape(e.point) << "\", \"gate\": " << e.gate
           << ", \"chunk\": " << e.chunk
           << ", \"attempts\": " << e.attempts << ", \"detail\": \""
           << jsonEscape(e.detail) << "\"}";
    }
    os << "}";
    return os.str();
}

void
writeRunReport(const RunResult &result, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        QGPU_FATAL("cannot write run report to '", path, "'");
    out << runReportJson(result) << "\n";
}

Machine
benchMachine(int num_qubits, int num_gpus)
{
    return machines::makeScaled(num_qubits, machines::p100(),
                                1.0 / 16.0, num_gpus);
}

ExecOptions
benchOptions()
{
    ExecOptions o;
    o.keepState = false;
    return o;
}

} // namespace harness
} // namespace qgpu
