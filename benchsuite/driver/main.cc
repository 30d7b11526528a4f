/**
 * @file
 * qgpu_bench - the benchmark driver. Runs one named workload in four
 * phases (oracle, set-up, timed passes, output) and prints every
 * metric with its name and unit; the last line of standard output is
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 * Usage: qgpu_bench --workload NAME [--seed N] [--seconds S]
 *                   [--trace 0|1] [--smoke] [--result FILE]
 *                   [--trace-dir DIR] [--commit SHA]
 *
 *   --trace 0  end-to-end metrics: set-up is repeated three times and
 *              its median reported; passes repeat for --seconds (at
 *              least three) and report medians.
 *   --trace 1  per-layer metrics from a separate traced run: untraced
 *              passes for the overhead and CPU baselines, one traced
 *              pass (virtual-time traces, counters, spans), the layer
 *              replays, and one pass on a single thread. Spans are
 *              written to DIR/trace-NAME.json (Chrome trace events).
 *   --result   also write the metrics with provenance to FILE.
 */

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bench_common.hh"
#include "common/cacheinfo.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "workloads.hh"

using namespace qgpu;
using namespace qgpu::benchsuite;

namespace
{

/** A metric as printed: value plus unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using MetricSet = std::map<std::string, Metric>;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 12.0;
    bool trace = false;
    bool smoke = false;
    std::string result;
    std::string traceDir;
    std::string commit = "unknown";
};

/** name, unit: the end-to-end metrics (BENCHMARK.json end_to_end). */
const std::vector<std::pair<const char *, const char *>> kEndToEnd = {
    {"setup_s", "s"},       {"wall_s", "s"},          {"model_s", "vs"},
    {"p50_latency_s", "s"}, {"p99_latency_s", "s"},
};

/** name, unit: the per-layer metrics (BENCHMARK.json per_layer).
 *  Layers a workload does not exercise read 0. */
const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"sim.h2d_s", "vs"},
    {"sim.d2h_s", "vs"},
    {"sim.compute_s", "vs"},
    {"sim.compress_s", "vs"},
    {"sim.peer_s", "vs"},
    {"sim.host_s", "vs"},
    {"sim.idle_s", "vs"},
    {"sim.h2d_bytes", "B"},
    {"sim.d2h_bytes", "B"},
    {"sim.qgpu_speedup", "x"},
    {"sim.device_speedup", "x"},
    {"prune.chunks_processed", "count"},
    {"prune.chunks_pruned", "count"},
    {"prune.pruned_frac", "fraction"},
    {"reorder.s", "s"},
    {"sched.schedule_s", "s"},
    {"sched.sweeps", "count"},
    {"sched.gates_per_sweep", "count"},
    {"sched.exchange_bytes", "B"},
    {"sched.exchange_phases", "count"},
    {"sched.device_imbalance", "x"},
    {"sched.exchange_plan_s", "s"},
    {"statevec.sweep_local_s", "s"},
    {"statevec.sweep_cross_s", "s"},
    {"statevec.gather_scatter_s", "s"},
    {"statevec.sweep_gbps", "GB/s"},
    {"statevec.kernel_amps", "count"},
    {"statevec.flatten_s", "s"},
    {"statevec.alloc_s", "s"},
    {"statevec.measure_s", "s"},
    {"statevec.evictions", "count"},
    {"statevec.refills", "count"},
    {"statevec.zero_fills", "count"},
    {"statevec.hit_frac", "fraction"},
    {"statevec.residency_s", "s"},
    {"statevec.peak_host_bytes", "B"},
    {"compress.encode_s", "s"},
    {"compress.decode_s", "s"},
    {"compress.ratio", "x"},
    {"fault.checksum_s", "s"},
    {"fault.verified", "count"},
    {"engine.run_wall_s", "s"},
    {"engine.harness_s", "s"},
    {"engine.plan_s", "s"},
    {"engine.sweep_replays", "count"},
    {"engine.sweep_splits", "count"},
    {"noise.events", "count"},
    {"noise.sample_s", "s"},
    {"service.hit_frac", "fraction"},
    {"service.coalesced", "count"},
    {"service.rejected", "count"},
    {"service.queue_wait_p50_s", "s"},
    {"service.queue_wait_p99_s", "s"},
    {"service.run_p50_s", "s"},
    {"service.run_p99_s", "s"},
    {"service.hash_s", "s"},
    {"service.late_p99_s", "s"},
    {"common.cpu_user_s", "s"},
    {"common.cpu_sys_s", "s"},
    {"common.cpu_util", "fraction"},
    {"common.ctx_switches", "count"},
    {"common.speedup_vs_1t", "x"},
    {"traced.coverage", "fraction"},
    {"traced.unattributed_s", "s"},
    {"traced.overhead_frac", "fraction"},
};

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "qgpu_bench: %s\n"
                 "usage: qgpu_bench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke]\n"
                 "                  [--result FILE] [--trace-dir DIR] "
                 "[--commit SHA]\n",
                 error.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + flag);
            return argv[++i];
        };
        if (flag == "--workload") {
            args.workload = value();
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::atof(value().c_str());
        } else if (flag == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            args.trace = v == "1";
        } else if (flag == "--smoke") {
            args.smoke = true;
        } else if (flag == "--result") {
            args.result = value();
        } else if (flag == "--trace-dir") {
            args.traceDir = value();
        } else if (flag == "--commit") {
            args.commit = value();
        } else {
            usage("unknown flag '" + flag + "'");
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

/** CPUs this process may run on (what `nproc` prints). */
int
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return ThreadPool::hardwareThreads();
    return CPU_COUNT(&set);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ',
                                                          colon + 1));
        }
    }
    return "unknown";
}

std::string
provenanceJson(const Args &args, int nproc)
{
    const CacheGeometry &g = cacheGeometry();
    const int hw = ThreadPool::hardwareThreads();
    const int threads = simThreads();
    std::ostringstream os;
    os << "{\"commit\": \"" << jsonEscape(args.commit)
       << "\", \"build_type\": \"" << QGPU_BENCH_BUILD_TYPE
       << "\", \"qgpu_native\": "
       << (QGPU_BENCH_NATIVE ? "true" : "false")
       << ", \"qgpu_fast_math\": "
       << (QGPU_BENCH_FAST_MATH ? "true" : "false")
       << ", \"nproc\": " << nproc << ", \"threads\": " << threads
       << ", \"oversubscribed\": "
       << (threads > nproc ? "true" : "false") << ", \"cpu_model\": \""
       << jsonEscape(cpuModel()) << "\", \"l1d_bytes\": " << g.l1dBytes
       << ", \"l2_bytes\": " << g.l2Bytes
       << ", \"l3_bytes\": " << g.l3Bytes << ", \"seed\": " << args.seed
       << ", \"seconds\": " << args.seconds
       << ", \"smoke\": " << (args.smoke ? "true" : "false")
       << bench::hardwareThreadsJson(hw) << "}";
    return os.str();
}

/** Counts every pass's operations and failures. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void add(const Pass &p)
    {
        attempted += p.ops;
        failed += p.failed;
    }
};

double
kernelAmps()
{
    const auto &registry = MetricsRegistry::global();
    double total = 0.0;
    for (const auto &name : registry.counterNames())
        if (name.rfind("kernel.", 0) == 0 && name.ends_with(".amps"))
            total += registry.counter(name);
    return total;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** End-to-end run: repeated set-up, then timed passes. */
Layers
runEndToEnd(Workload &w, const Args &args, Tally &tally)
{
    std::vector<double> setups;
    for (int k = 0; k < (args.smoke ? 1 : 3); ++k) {
        const double t0 = now();
        w.setup();
        const Pass warm = w.pass(nullptr, nullptr, -1);
        setups.push_back(now() - t0);
        tally.add(warm);
    }

    // Every pass makes the same operations in the same order, so
    // by_op[i] collects operation i's latency from each pass.
    std::vector<double> walls, models;
    std::vector<std::vector<double>> by_op;
    const double start = now();
    while (walls.size() < (args.smoke ? 1u : 3u) ||
           now() - start < args.seconds) {
        const Pass p = w.pass(nullptr, nullptr, -1);
        tally.add(p);
        walls.push_back(p.wall);
        models.push_back(p.model);
        by_op.resize(p.latencies.size());
        for (std::size_t i = 0; i < p.latencies.size(); ++i)
            by_op[i].push_back(p.latencies[i]);
    }
    // An operation's latency is its median over the passes; the
    // percentiles are taken over operations.
    std::vector<double> latencies;
    for (const auto &samples : by_op)
        latencies.push_back(median(samples));

    std::printf("passes %zu, operations per pass %zu\n", walls.size(),
                latencies.size());
    return {
        {"setup_s", median(setups)},
        {"wall_s", median(walls)},
        {"model_s", median(models)},
        {"p50_latency_s", quantile(latencies, 0.50)},
        {"p99_latency_s", quantile(latencies, 0.99)},
    };
}

/** Traced run: baselines, one traced pass, replays, one 1-thread pass. */
Layers
runTraced(Workload &w, const Args &args, int threads, Tally &tally)
{
    w.setup();
    tally.add(w.pass(nullptr, nullptr, -1));

    // Untraced passes: the overhead baseline and the CPU accounting.
    std::vector<double> walls, user, sys, switches;
    const double start = now();
    while (walls.size() < 2 || now() - start < args.seconds / 2) {
        const Usage u0 = Usage::now();
        const Pass p = w.pass(nullptr, nullptr, -1);
        const Usage du = Usage::now() - u0;
        tally.add(p);
        walls.push_back(p.wall);
        user.push_back(du.userSeconds);
        sys.push_back(du.sysSeconds);
        switches.push_back(du.contextSwitches);
        if (args.smoke)
            break;
    }
    const double untraced = median(walls);

    SpanLog spans;
    Traced traced;
    const double amps0 = kernelAmps();
    const int pass_span = spans.open("traced pass");
    const Pass tp = w.pass(&traced, &spans, pass_span);
    spans.close(pass_span);
    const double amps = kernelAmps() - amps0;
    tally.add(tp);

    const int replay_span = spans.open("layer replays");
    Layers &l = traced.layers;
    const double attributed =
        replayLayers(traced.replay, l, spans, replay_span);
    spans.close(replay_span);
    double replayed_wall = 0.0;
    for (const ReplayOp &op : traced.replay)
        replayed_wall += op.wall;

    setSimThreads(1);
    const Pass single = w.pass(nullptr, nullptr, -1);
    setSimThreads(threads);
    tally.add(single);

    l["statevec.kernel_amps"] = amps;
    if (l["engine.run_wall_s"] > 0.0)
        l["engine.harness_s"] = tp.wall - l["engine.run_wall_s"];
    l["prune.pruned_frac"] =
        ratio(l["prune.chunks_pruned"],
              l["prune.chunks_processed"] + l["prune.chunks_pruned"]);
    l["sched.gates_per_sweep"] =
        ratio(l["_sched.gates"], l["sched.sweeps"]);
    l["sched.device_imbalance"] =
        ratio(l["_imbalance.sum"], l["_imbalance.n"]);
    l["statevec.sweep_gbps"] =
        ratio(l["_statevec.sweep_bytes"],
              l["statevec.sweep_local_s"] + l["statevec.sweep_cross_s"]) /
        1e9;
    l["statevec.hit_frac"] = ratio(
        l["_statevec.hits"], l["_statevec.hits"] + l["statevec.refills"]);
    l["compress.ratio"] = ratio(l["_compress.in"], l["_compress.out"]);
    l["common.cpu_user_s"] = median(user);
    l["common.cpu_sys_s"] = median(sys);
    l["common.cpu_util"] =
        ratio(median(user) + median(sys), untraced * threads);
    l["common.ctx_switches"] = median(switches);
    l["common.speedup_vs_1t"] = ratio(single.wall, untraced);
    l["traced.coverage"] = ratio(attributed, replayed_wall);
    l["traced.unattributed_s"] = replayed_wall - attributed;
    l["traced.overhead_frac"] = ratio(tp.wall, untraced) - 1.0;

    std::printf("traced: %zu ops replayed, %.6f s of %.6f s attributed "
                "to layers, unattributed remainder %.6f s\n",
                traced.replay.size(), attributed, replayed_wall,
                replayed_wall - attributed);
    if (!args.traceDir.empty()) {
        const std::string path =
            args.traceDir + "/trace-" + args.workload + ".json";
        if (spans.writeChromeTrace(path, "qgpu_bench " + args.workload))
            std::printf("trace: %zu spans written to %s\n",
                        spans.spans().size(), path.c_str());
        else
            std::fprintf(stderr, "qgpu_bench: cannot write %s\n",
                         path.c_str());
    }

    return l;
}

std::string
metricsJson(const MetricSet &metrics)
{
    std::ostringstream os;
    os.precision(17);
    os << "{";
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        os << (first ? "" : ", ") << "\"" << name
           << "\": {\"value\": " << metric.value << ", \"unit\": \""
           << metric.unit << "\"}";
        first = false;
    }
    os << "}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const int nproc = affinityCpus();
    setSimThreads(nproc);

    Config config;
    config.seed = args.seed;
    config.threads = nproc;
    config.smoke = args.smoke;
    const auto workload = makeWorkload(args.workload, config);
    if (!workload)
        usage("unknown workload '" + args.workload + "'");

    const std::string provenance = provenanceJson(args, nproc);
    std::printf("qgpu_bench: workload %s, seed %llu, %s run\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? "traced" : "end-to-end");
    std::printf("provenance: %s\n", provenance.c_str());
    std::fflush(stdout);

    workload->oracle();
    Tally tally;
    Layers values = args.trace ? runTraced(*workload, args, nproc, tally)
                               : runEndToEnd(*workload, args, tally);
    MetricSet metrics;
    for (const auto &[name, unit] : args.trace ? kPerLayer : kEndToEnd)
        metrics[name] = {values[name], unit};

    const double fail_rate =
        ratio(static_cast<double>(tally.failed),
              static_cast<double>(tally.attempted));
    for (const auto &[name, metric] : metrics)
        std::printf("metric %-28s %.9g %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
    std::printf("ops %llu  failed %llu  fail_rate %.9g\n",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                fail_rate);

    const bool correct = tally.failed == 0 && tally.attempted > 0;
    if (!args.result.empty()) {
        std::ofstream out(args.result);
        out << "{\"workload\": \"" << args.workload
            << "\", \"seed\": " << args.seed
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"provenance\": " << provenance
            << ", \"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"fail_rate\": " << fail_rate
            << ", \"metrics\": " << metricsJson(metrics) << "}\n";
        if (!out) {
            std::fprintf(stderr, "qgpu_bench: cannot write %s\n",
                         args.result.c_str());
            return 1;
        }
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                metricsJson(metrics).c_str());
    return 0;
}
