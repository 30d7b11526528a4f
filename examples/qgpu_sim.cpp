/**
 * @file
 * qgpu_sim - the command-line simulator driver. Loads a benchmark
 * family or an OpenQASM 2.0 file, runs it through a chosen engine on
 * a chosen (scaled) machine, and reports measurement counts, timing,
 * and stats.
 *
 * Examples:
 *   ./qgpu_sim --circuit qft --qubits 14 --engine qgpu --shots 100
 *   ./qgpu_sim --qasm program.qasm --engine baseline --gpu v100
 *   ./qgpu_sim --circuit gs --qubits 12 --gpus 4 --gpu p4 --timeline
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "engine/batched.hh"
#include "harness/experiment.hh"
#include "qc/qasm.hh"
#include "statevec/kernel_dispatch.hh"
#include "statevec/measure.hh"

using namespace qgpu;

namespace
{

struct Args
{
    std::string circuit;
    std::string qasm_path;
    std::string engine = "qgpu";
    std::string gpu = "p100";
    int qubits = 14;
    int gpus = 1;
    int paper_qubits = 34;
    double device_fraction = 1.0 / 16.0;
    std::uint64_t shots = 0;
    std::uint64_t seed = 2026;
    int threads = -1; // -1: keep QGPU_SIM_THREADS / default
    bool timeline = false;
    bool stats = false;
    bool exchange_stats = false;
    bool kernel_stats = false;
    bool sweep_stats = false;
    bool verify_chunks = false;
    int verify_sample = 8;
    bool fast_math = false;
    std::string precision;
    double adaptive_threshold = -1.0; // < 0: keep the default
    std::string storage;
    long long working_set = 0;
    std::string spill_dir;
    bool storage_stats = false;
    std::string fault_spec = "env";
    std::uint64_t fault_seed = 0x517e57ull;
    std::string noise_spec;
    std::uint64_t shot_seed = 0x5407ull;
    std::string batch_mode = "shared";
    std::string trace_path;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --circuit <family>    hchain|rqc|qaoa|gs|hlf|qft|iqp|qf|"
        "bv|random|grqc\n"
        "  --qasm <file>         load an OpenQASM 2.0 program "
        "instead\n"
        "  --qubits <n>          register size for --circuit "
        "(default 14)\n"
        "  --engine <name>       baseline|naive|overlap|pruning|"
        "reorder|qgpu|cpu|qsim|qdk\n"
        "  --gpu <preset>        p100|v100|v100nvl|a100|p4\n"
        "  --gpus <k>            number of GPUs (default 1)\n"
        "  --devices <k>         alias for --gpus\n"
        "  --fraction <f>        device memory as a fraction of the "
        "state (default 1/16)\n"
        "  --paper-qubits <n>    rate-scaling reference size "
        "(default 34)\n"
        "  --shots <k>           sample k measurement outcomes\n"
        "  --seed <s>            sampling seed\n"
        "  --threads <k>         host simulation threads (0 = all "
        "cores;\n"
        "                        default: $QGPU_SIM_THREADS or 1)\n"
        "  --timeline            print the ASCII execution timeline\n"
        "  --stats               print every engine counter\n"
        "  --exchange-stats      print the cross-device exchange and "
        "per-device\n"
        "                        busy breakdown (multi-device runs)\n"
        "  --kernel-stats        print per-kernel-kind dispatch "
        "counters\n"
        "  --sweep-stats         print sweep-executor counters "
        "(passes over the state vs gates)\n"
        "  --verify-chunks       checksum chunks at compress/D2H "
        "time and verify at\n"
        "                        H2D/decompress time; prints "
        "integrity counters\n"
        "  --verify-sample <k>   max chunks verified per sweep "
        "(rotating window;\n"
        "                        0 = every chunk; default 8)\n"
        "  --fast-math           run the contracted-FMA kernel tier "
        "(1e-12 accuracy\n"
        "                        contract; also $QGPU_FAST_MATH=1)\n"
        "  --precision <p>       amplitude storage precision: "
        "f64|f32|adaptive\n"
        "                        (f32 halves every modeled transfer; "
        "1e-5 contract)\n"
        "  --adaptive-threshold <t>\n"
        "                        adaptive mode: chunks whose largest "
        "amplitude\n"
        "                        component is below t stay f64 "
        "(default 1e-6)\n"
        "  --storage <kind>      chunk storage backend: "
        "raw|compressed|spill\n"
        "                        (cold chunks GFC-encoded in host "
        "memory / paged to\n"
        "                        a scratch file; bit-identical to "
        "raw)\n"
        "  --working-set <k>     max decompressed chunks kept "
        "resident (0 = auto:\n"
        "                        a quarter of host RAM)\n"
        "  --spill-dir <dir>     scratch directory for --storage "
        "spill (default:\n"
        "                        $TMPDIR or /tmp)\n"
        "  --storage-stats       print storage.* counters (working-"
        "set hits,\n"
        "                        evictions, compressed bytes)\n"
        "  --fault-spec <spec>   inject faults, e.g. "
        "\"d2h:0.01,codec:0.005\" (points: h2d,\n"
        "                        d2h, peer, codec, alloc; default: "
        "$QGPU_FAULT_SPEC)\n"
        "  --fault-seed <s>      fault-injector seed\n"
        "  --noise-spec <spec>   stochastic noise channels for "
        "batched shots, e.g.\n"
        "                        \"pauli1:0.01,damp:0.02,"
        "readout:0.05\" or a JSON\n"
        "                        object (noise/model.hh); needs "
        "--shots > 0\n"
        "  --shot-seed <s>       base seed of the noisy batch "
        "(shot i draws from\n"
        "                        splitSeed(s, i))\n"
        "  --batch-mode <m>      shared (build the sweep schedule "
        "once, replay per\n"
        "                        shot) | pershot (expand each "
        "shot's sampled errors\n"
        "                        into its own circuit); default "
        "shared\n"
        "  --trace <file>        write a JSON execution trace "
        "(per-phase totals + spans)\n",
        argv0);
    std::exit(1);
}

DeviceSpec
gpuPreset(const std::string &name)
{
    if (name == "p100")
        return machines::p100();
    if (name == "v100")
        return machines::v100Pcie();
    if (name == "v100nvl")
        return machines::v100Nvlink();
    if (name == "a100")
        return machines::a100();
    if (name == "p4")
        return machines::p4();
    QGPU_FATAL("unknown GPU preset '", name, "'");
}

Args
parse(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (flag == "--circuit")
            args.circuit = value();
        else if (flag == "--qasm")
            args.qasm_path = value();
        else if (flag == "--qubits")
            args.qubits = std::atoi(value().c_str());
        else if (flag == "--engine")
            args.engine = value();
        else if (flag == "--gpu")
            args.gpu = value();
        else if (flag == "--gpus" || flag == "--devices")
            args.gpus = std::atoi(value().c_str());
        else if (flag == "--fraction")
            args.device_fraction = std::atof(value().c_str());
        else if (flag == "--paper-qubits")
            args.paper_qubits = std::atoi(value().c_str());
        else if (flag == "--shots")
            args.shots = std::strtoull(value().c_str(), nullptr, 10);
        else if (flag == "--seed")
            args.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (flag == "--threads")
            args.threads = std::atoi(value().c_str());
        else if (flag == "--timeline")
            args.timeline = true;
        else if (flag == "--stats")
            args.stats = true;
        else if (flag == "--exchange-stats")
            args.exchange_stats = true;
        else if (flag == "--kernel-stats")
            args.kernel_stats = true;
        else if (flag == "--sweep-stats")
            args.sweep_stats = true;
        else if (flag == "--verify-chunks")
            args.verify_chunks = true;
        else if (flag == "--verify-sample")
            args.verify_sample = std::atoi(value().c_str());
        else if (flag == "--fast-math")
            args.fast_math = true;
        else if (flag == "--precision")
            args.precision = value();
        else if (flag == "--adaptive-threshold")
            args.adaptive_threshold = std::atof(value().c_str());
        else if (flag == "--storage")
            args.storage = value();
        else if (flag == "--working-set")
            args.working_set = std::atoll(value().c_str());
        else if (flag == "--spill-dir")
            args.spill_dir = value();
        else if (flag == "--storage-stats")
            args.storage_stats = true;
        else if (flag == "--fault-spec")
            args.fault_spec = value();
        else if (flag == "--fault-seed")
            args.fault_seed =
                std::strtoull(value().c_str(), nullptr, 10);
        else if (flag == "--noise-spec")
            args.noise_spec = value();
        else if (flag == "--shot-seed")
            args.shot_seed =
                std::strtoull(value().c_str(), nullptr, 10);
        else if (flag == "--batch-mode")
            args.batch_mode = value();
        else if (flag == "--trace")
            args.trace_path = value();
        else
            usage(argv[0]);
    }
    if (args.circuit.empty() == args.qasm_path.empty())
        usage(argv[0]); // exactly one source required
    return args;
}

Circuit
loadCircuit(const Args &args)
{
    if (!args.qasm_path.empty()) {
        std::ifstream in(args.qasm_path);
        if (!in)
            QGPU_FATAL("cannot open '", args.qasm_path, "'");
        std::ostringstream buf;
        buf << in.rdbuf();
        return fromQasm(buf.str());
    }
    return circuits::makeBenchmark(args.circuit, args.qubits);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    if (args.threads >= 0)
        setSimThreads(args.threads);
    const Circuit circuit = loadCircuit(args);

    std::printf("circuit: %s (%d qubits, %zu gates, depth %d)\n",
                circuit.name().c_str(), circuit.numQubits(),
                circuit.numGates(), circuit.depth());

    Machine machine = machines::makeScaled(
        circuit.numQubits(), gpuPreset(args.gpu),
        args.device_fraction, args.gpus, args.paper_qubits);
    std::printf("machine: %dx %s, %.1f MiB device memory each "
                "(state: %.1f MiB)\n",
                machine.numDevices(), args.gpu.c_str(),
                static_cast<double>(
                    machine.device(0).spec().memBytes) /
                    (1 << 20),
                static_cast<double>(
                    stateBytes(circuit.numQubits())) /
                    (1 << 20));

    ExecOptions options;
    options.recordTrace = args.timeline || !args.trace_path.empty();
    options.verifyChunks = args.verify_chunks;
    options.verifySampleChunks = args.verify_sample;
    options.faultSpec = args.fault_spec;
    options.faultSeed = args.fault_seed;
    if (args.fast_math)
        options.fastMath = true; // env opt-in already seeded the default
    if (!args.precision.empty() &&
        !parsePrecision(args.precision, options.precision))
        QGPU_FATAL("unknown precision '", args.precision,
                   "' (expected f64, f32, or adaptive)");
    if (args.adaptive_threshold >= 0.0)
        options.adaptiveThreshold = args.adaptive_threshold;
    if (!args.storage.empty() &&
        !parseStorageKind(args.storage, options.storage))
        QGPU_FATAL("unknown storage kind '", args.storage,
                   "' (expected raw, compressed, or spill)");
    if (args.working_set > 0)
        options.workingSetChunks = static_cast<Index>(args.working_set);
    options.spillDir = args.spill_dir;
    const KernelCopy &copy =
        options.fastMath ? fastKernels() : exactKernels();
    std::printf("tiers:   kernels=%s(%s), precision=%s, "
                "chunk-storage=%s\n",
                options.fastMath ? "fast-math" : "exact", copy.isa,
                precisionName(options.precision),
                storageKindName(options.storage));

    const bool noisy =
        !args.noise_spec.empty() && args.noise_spec != "none";
    if (noisy) {
        // Stochastic batched path: N seeded shot trajectories over
        // the build-once sweep schedule (engine/batched.hh).
        if (args.shots == 0)
            QGPU_FATAL("--noise-spec needs --shots > 0");
        options.noiseSpec = args.noise_spec;
        options.shotSeed = args.shot_seed;
        if (args.batch_mode == "pershot")
            options.batchMode = BatchMode::PerShot;
        else if (args.batch_mode != "shared")
            QGPU_FATAL("unknown batch mode '", args.batch_mode,
                       "' (expected shared or pershot)");
        const auto engine =
            harness::makeEngine(args.engine, machine, options);
        const BatchResult batch =
            engine->runBatched(circuit, args.shots);
        std::printf("engine:  %s (%s batch)\n",
                    batch.engine.c_str(), args.batch_mode.c_str());
        std::printf("wall time:    %.3f s (schedule %.3f s, %d "
                    "host thread%s)\n",
                    batch.wallSeconds, batch.scheduleSeconds,
                    simThreads(), simThreads() == 1 ? "" : "s");
        if (!batch.ok()) {
            std::printf("\nSIM ERROR after %llu shots: %s\n",
                        static_cast<unsigned long long>(
                            batch.outcomes.size()),
                        batch.error->toString().c_str());
            return 2;
        }
        std::printf("\ncounts (%llu noisy shots):\n",
                    static_cast<unsigned long long>(args.shots));
        for (const auto &[outcome, count] : batch.counts) {
            std::printf("  ");
            for (int q = circuit.numQubits() - 1; q >= 0; --q)
                std::printf("%d",
                            static_cast<int>(outcome >> q) & 1);
            std::printf(": %llu\n",
                        static_cast<unsigned long long>(count));
        }
        std::printf("\nbatch counters:\n");
        for (const auto &name : batch.stats.names()) {
            if (name.rfind("shots.", 0) != 0 &&
                name.rfind("noise.", 0) != 0)
                continue;
            std::printf("  %-28s %g\n", name.c_str(),
                        batch.stats.get(name));
        }
        if (args.stats)
            std::printf("\nstats:\n%s",
                        batch.stats.toString().c_str());
        return 0;
    }

    const RunResult result =
        harness::runOn(args.engine, machine, circuit, options);

    std::printf("engine:  %s\n", result.engine.c_str());
    std::printf("virtual time: %.3f s (at %d-qubit-equivalent "
                "scale)\n",
                result.totalTime, args.paper_qubits);
    std::printf("wall time:    %.3f s (%d host thread%s)\n",
                result.wallSeconds, simThreads(),
                simThreads() == 1 ? "" : "s");

    const bool show_integrity =
        args.verify_chunks || args.fault_spec != "env" ||
        std::getenv("QGPU_FAULT_SPEC") != nullptr;
    if (show_integrity) {
        // integrity.* counters from the chunk-integrity layer
        // (fault/integrity.hh), mirrored into the global registry at
        // the end of the run.
        const auto &mr = MetricsRegistry::global();
        std::printf("\nchunk integrity:\n");
        bool any = false;
        for (const auto &name : mr.counterNames()) {
            if (name.rfind("integrity.", 0) != 0)
                continue;
            std::printf("  %-28s %.0f\n", name.c_str(),
                        mr.counter(name));
            any = true;
        }
        if (!any)
            std::printf("  (clean -- no checksums recorded, no "
                        "faults injected)\n");
    }

    if (!result.ok()) {
        // Recovery exhausted: report the structured error and a
        // non-zero exit instead of a meaningless state.
        std::printf("\nSIM ERROR: %s\n",
                    result.error->toString().c_str());
        return 2;
    }
    std::printf("state norm:   %.12f\n", result.state.norm());

    if (args.shots > 0) {
        Rng rng(args.seed);
        const auto counts =
            sampleCounts(result.state, args.shots, rng);
        std::printf("\ncounts (%llu shots):\n",
                    static_cast<unsigned long long>(args.shots));
        for (const auto &[outcome, count] : counts) {
            std::printf("  ");
            for (int q = circuit.numQubits() - 1; q >= 0; --q)
                std::printf("%d", static_cast<int>(outcome >> q) & 1);
            std::printf(": %llu\n",
                        static_cast<unsigned long long>(count));
        }
    }

    if (args.exchange_stats) {
        // exchange.* counters plus the per-device busy rows
        // (device.<i>.busy/h2d/d2h/peer, emitted for multi-device
        // runs by ExecutionEngine::run).
        std::printf("\ncross-device exchange:\n");
        bool any = false;
        for (const auto &name : result.stats.names()) {
            if (name.rfind("exchange.", 0) != 0 &&
                name.rfind("device.", 0) != 0 &&
                name != statkeys::peerTime)
                continue;
            std::printf("  %-28s %g\n", name.c_str(),
                        result.stats.get(name));
            any = true;
        }
        if (!any)
            std::printf("  (none -- single device, or no "
                        "cross-shard sweeps)\n");
    }
    if (args.storage_stats) {
        // storage.* counters from the bounded-residency layer
        // (statevec/chunk_storage.hh), exported into the run's stats
        // by exportStorageStats.
        std::printf("\nchunk storage:\n");
        bool any = false;
        for (const auto &name : result.stats.names()) {
            if (name.rfind("storage.", 0) != 0)
                continue;
            std::printf("  %-28s %g\n", name.c_str(),
                        result.stats.get(name));
            any = true;
        }
        if (!any)
            std::printf("  (raw storage -- no bounded working "
                        "set)\n");
    }
    if (args.timeline)
        std::printf("\n%s", renderTimeline(result.trace, 100).c_str());
    if (args.stats)
        std::printf("\nstats:\n%s", result.stats.toString().c_str());
    if (args.kernel_stats) {
        // kernel.<kind>.invocations / kernel.<kind>.amps, published
        // by the dispatch layer (statevec/kernel_dispatch.hh).
        const auto &mr = MetricsRegistry::global();
        std::printf("\nkernel dispatch counters:\n");
        bool any = false;
        for (const auto &name : mr.counterNames()) {
            if (name.rfind("kernel.", 0) != 0)
                continue;
            std::printf("  %-28s %.0f\n", name.c_str(),
                        mr.counter(name));
            any = true;
        }
        if (!any)
            std::printf("  (none -- engine bypassed the dispatch "
                        "layer)\n");
    }
    if (args.sweep_stats) {
        // sweep.* counters from the sweep executor
        // (statevec/apply.hh): passes over the state = sweeps, not
        // gates, so gates/sweep is the batching factor.
        const auto &mr = MetricsRegistry::global();
        const double sweeps = mr.counter("sweep.count");
        const Histogram per = mr.histogram("sweep.gates_per_sweep");
        std::printf("\nsweep executor counters:\n");
        if (sweeps == 0.0) {
            std::printf("  (none -- engine bypassed the sweep "
                        "executor)\n");
        } else {
            std::printf("  sweeps executed:     %.0f state passes "
                        "(vs %zu gates gate-by-gate)\n",
                        sweeps, circuit.numGates());
            std::printf("  gates per sweep:     %.2f mean, %.0f "
                        "max\n",
                        per.mean(), per.max());
        }
    }
    if (!args.trace_path.empty()) {
        harness::writeRunReport(result, args.trace_path);
        std::printf("\ntrace: %zu spans -> %s\n",
                    result.trace.spans().size(),
                    args.trace_path.c_str());
        std::printf("phase breakdown (exposed / busy seconds):\n");
        for (const auto &[phase, total] : result.trace.phaseTotals()) {
            std::printf("  %-12s %10.4f / %10.4f  (%llu spans)\n",
                        phase.c_str(), total.exposed, total.busy,
                        static_cast<unsigned long long>(total.spans));
        }
    }
    return 0;
}
