/**
 * @file
 * bench_shots - wall-clock payoff of shot batching, emitted as JSON.
 * For each benchmark family, 1024 noisy shots run twice through the
 * full Q-GPU engine at all hardware threads: once per-shot (the naive
 * baseline -- every shot reorders, plans, and streams its own
 * materialized circuit, one shot after another) and once shared (the
 * schedule is built once and replayed per shot, splitting sweeps only
 * where a sampled error lands, with shots fanned out across the
 * thread pool). Both paths produce bit-identical outcomes -- the
 * batched-differential suite pins that -- so the speedup measured
 * here is schedule reuse times the shot fan-out. Each row records
 * both wall times, the shared-schedule build time, the speedup, and
 * the batch counters (events, sweep replays/splits); the header
 * records how many shared-mode shots ran at once ("shots_in_flight").
 *
 * Usage: bench_shots [output.json] [--qubits n] [--shots n]
 *                    [--engine name] [--noise spec]
 *
 * The per-shot work is host-side functional simulation, so wall times
 * on a single-hardware-thread host are serialized; the file carries
 * the standard "hardware_threads" field plus the "oversubscribed"
 * warning marker in that regime.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/cacheinfo.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "engine/batched.hh"
#include "harness/experiment.hh"

using namespace qgpu;

namespace
{

struct Row
{
    std::string family;
    double naiveWall = 0.0;
    double batchedWall = 0.0;
    double scheduleSeconds = 0.0;
    double speedup = 0.0;
    double noiseEvents = 0.0;
    double sweepReplays = 0.0;
    double sweepSplits = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_shots.json";
    std::string engine = "qgpu";
    std::string noise = "pauli1:0.01,readout:0.01";
    int qubits = 10;
    std::uint64_t shots = 1024;

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                QGPU_FATAL("missing value for ", flag);
            return argv[++i];
        };
        if (flag == "--qubits") {
            qubits = std::atoi(value().c_str());
        } else if (flag == "--shots") {
            shots = std::strtoull(value().c_str(), nullptr, 10);
        } else if (flag == "--engine") {
            engine = value();
        } else if (flag == "--noise") {
            noise = value();
        } else if (!flag.empty() && flag[0] != '-') {
            out_path = flag;
        } else {
            QGPU_FATAL("unknown flag '", flag, "'");
        }
    }
    if (qubits < 4 || shots == 0)
        QGPU_FATAL("bad arguments");

    const int hw = bench::hardwareThreadsWithWarning("bench_shots");
    setSimThreads(0);

    std::printf("bench_shots: %s engine, %d qubits, %llu shots, "
                "noise \"%s\", hardware threads: %d\n",
                engine.c_str(), qubits,
                static_cast<unsigned long long>(shots),
                noise.c_str(), hw);

    std::vector<Row> rows;
    for (const auto &family : circuits::benchmarkNames()) {
        const Circuit circuit =
            circuits::makeBenchmark(family, qubits);

        ExecOptions o = harness::benchOptions();
        o.faultSpec = "none";
        o.noiseSpec = noise;

        Row row;
        row.family = family;

        o.batchMode = BatchMode::PerShot;
        Machine naive_machine = harness::benchMachine(qubits);
        const BatchResult naive =
            harness::makeEngine(engine, naive_machine, o)
                ->runBatched(circuit, shots);
        if (!naive.ok())
            QGPU_FATAL(family, " errored in the per-shot baseline");
        row.naiveWall = naive.wallSeconds;

        o.batchMode = BatchMode::Shared;
        Machine machine = harness::benchMachine(qubits);
        const BatchResult batched =
            harness::makeEngine(engine, machine, o)
                ->runBatched(circuit, shots);
        if (!batched.ok())
            QGPU_FATAL(family, " errored in the shared batch");
        row.batchedWall = batched.wallSeconds;
        row.scheduleSeconds = batched.scheduleSeconds;
        row.speedup = row.naiveWall / row.batchedWall;
        row.noiseEvents =
            batched.stats.get(statkeys::noiseEvents);
        row.sweepReplays =
            batched.stats.get(statkeys::shotsSweepReplays);
        row.sweepSplits =
            batched.stats.get(statkeys::shotsSweepSplits);

        std::printf("  %-8s naive %8.3f ms  batched %8.3f ms  "
                    "(x%.2f)\n",
                    family.c_str(), row.naiveWall * 1e3,
                    row.batchedWall * 1e3, row.speedup);
        rows.push_back(std::move(row));
    }

    std::ofstream out(out_path);
    if (!out)
        QGPU_FATAL("cannot write '", out_path, "'");
    out.precision(9);
    out << "{\"bench\": \"shots\", \"engine\": \"" << engine
        << "\", \"qubits\": " << qubits << ", \"shots\": " << shots
        << ", \"noise_spec\": \"" << noise << "\""
        << ", \"shots_in_flight\": "
        << shotsInFlight(stateBytes(qubits), hostRamBytes(),
                         simThreads())
        << bench::hardwareThreadsJson(hw);
    out << ",\n \"entries\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        out << (i == 0 ? "" : ",") << "\n  {\"family\": \""
            << r.family << "\", \"naive_wall_seconds\": "
            << r.naiveWall
            << ", \"batched_wall_seconds\": " << r.batchedWall
            << ", \"schedule_seconds\": " << r.scheduleSeconds
            << ", \"speedup\": " << r.speedup
            << ", \"noise_events\": " << r.noiseEvents
            << ", \"sweep_replays\": " << r.sweepReplays
            << ", \"sweep_splits\": " << r.sweepSplits << "}";
    }
    out << "\n ]}\n";
    std::printf("wrote %s (%zu rows)\n", out_path.c_str(),
                rows.size());
    return 0;
}
