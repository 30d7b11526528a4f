/**
 * @file
 * qgpu_serve - multi-tenant job-service front end over the simulator.
 *
 * Three modes:
 *
 *   qgpu_serve --generate trace.jsonl [traffic flags]
 *       Write a deterministic synthetic traffic trace (one JSON job
 *       request per line) without running anything.
 *
 *   qgpu_serve --replay trace.jsonl [service flags]
 *       Submit every request of the trace, in order, through a
 *       JobService and print one JSON result line per job (in job-id
 *       order, so the output is deterministic run-to-run), then the
 *       service.* counter summary.
 *
 *   qgpu_serve [traffic flags] [service flags]
 *       Generate-and-run: the synthetic trace goes straight into the
 *       service.
 *
 * Traffic flags: --jobs n, --repeat f (0..1 repeat fraction),
 *   --tenants n, --min-qubits n, --max-qubits n, --shots n,
 *   --traffic-seed s, --families a,b,...
 * Service flags: --engine name, --gpu preset, --devices n,
 *   --active n (concurrent jobs), --queue n (admission bound),
 *   --small-burst n (fair-share burst; 0 = FIFO),
 *   --small-cost c (small/large boundary on 2^qubits * gates),
 *   --cache-mb n (0 disables the result cache)
 * Kernel tier: per job, from the request's "fast_math" field; exact
 *   and fast jobs share one service.
 * Output: --out file (result lines; default stdout), --quiet (no
 *   per-job lines, counters only).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "service/scheduler.hh"
#include "service/traffic.hh"

using namespace qgpu;
using namespace qgpu::service;

namespace
{

std::vector<std::string>
splitList(std::string list)
{
    std::vector<std::string> out;
    for (char *tok = std::strtok(list.data(), ","); tok != nullptr;
         tok = std::strtok(nullptr, ","))
        out.emplace_back(tok);
    return out;
}

void
printCounters(const JobService &svc)
{
    static const char *names[] = {
        "service.submitted",
        "service.completed",
        "service.failed",
        "service.rejected",
        "service.cancelled",
        "service.cache.hit",
        "service.cache.miss",
        "service.singleflight.coalesced",
    };
    std::fprintf(stderr, "counters:\n");
    for (const char *name : names)
        std::fprintf(stderr, "  %-32s %llu\n", name,
                     static_cast<unsigned long long>(
                         svc.counter(name)));
    const ResultCacheStats cache = svc.cacheStats();
    std::fprintf(stderr,
                 "  cache: %llu entries, %.1f MiB resident, "
                 "%llu evictions\n",
                 static_cast<unsigned long long>(cache.entries),
                 static_cast<double>(cache.bytes) / (1 << 20),
                 static_cast<unsigned long long>(cache.evictions));
}

} // namespace

int
main(int argc, char **argv)
{
    TrafficConfig traffic;
    traffic.jobs = 40;
    traffic.repeatFraction = 0.5;
    ServiceConfig config;
    std::string generate_path, replay_path, out_path;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                QGPU_FATAL("missing value for ", flag);
            return argv[++i];
        };
        if (flag == "--generate") {
            generate_path = value();
        } else if (flag == "--replay") {
            replay_path = value();
        } else if (flag == "--jobs") {
            traffic.jobs = std::atoi(value().c_str());
        } else if (flag == "--repeat") {
            traffic.repeatFraction = std::atof(value().c_str());
        } else if (flag == "--tenants") {
            traffic.tenants = std::atoi(value().c_str());
        } else if (flag == "--min-qubits") {
            traffic.minQubits = std::atoi(value().c_str());
        } else if (flag == "--max-qubits") {
            traffic.maxQubits = std::atoi(value().c_str());
        } else if (flag == "--shots") {
            traffic.shots = static_cast<std::uint64_t>(
                std::atoll(value().c_str()));
        } else if (flag == "--traffic-seed") {
            traffic.seed = static_cast<std::uint64_t>(
                std::atoll(value().c_str()));
        } else if (flag == "--families") {
            traffic.families = splitList(value());
        } else if (flag == "--engine") {
            traffic.engine = value();
        } else if (flag == "--gpu") {
            config.gpu = value();
        } else if (flag == "--devices") {
            config.devices = std::atoi(value().c_str());
        } else if (flag == "--active") {
            config.maxActiveJobs = std::atoi(value().c_str());
        } else if (flag == "--queue") {
            config.maxQueueDepth = std::atoi(value().c_str());
        } else if (flag == "--small-burst") {
            config.fairShareSmallBurst = std::atoi(value().c_str());
        } else if (flag == "--small-cost") {
            config.smallCostThreshold = std::atof(value().c_str());
        } else if (flag == "--cache-mb") {
            config.cacheBytes =
                static_cast<std::size_t>(
                    std::atoll(value().c_str()))
                << 20;
        } else if (flag == "--out") {
            out_path = value();
        } else if (flag == "--quiet") {
            quiet = true;
        } else {
            QGPU_FATAL("unknown flag '", flag, "'");
        }
    }
    if (traffic.jobs < 1 || traffic.repeatFraction < 0.0 ||
        traffic.repeatFraction > 1.0 ||
        traffic.minQubits > traffic.maxQubits)
        QGPU_FATAL("bad arguments");

    if (!generate_path.empty()) {
        const auto requests = generateTraffic(traffic);
        saveTraffic(requests, generate_path);
        std::fprintf(stderr, "qgpu_serve: wrote %zu requests to %s\n",
                     requests.size(), generate_path.c_str());
        return 0;
    }

    const std::vector<JobRequest> requests =
        replay_path.empty() ? generateTraffic(traffic)
                            : loadTraffic(replay_path);
    std::fprintf(stderr,
                 "qgpu_serve: %zu jobs, engine %s, %d active, "
                 "queue %d, burst %d, cache %.0f MiB\n",
                 requests.size(), traffic.engine.c_str(),
                 config.maxActiveJobs, config.maxQueueDepth,
                 config.fairShareSmallBurst,
                 static_cast<double>(config.cacheBytes) /
                     (1 << 20));

    JobService svc(config);
    std::vector<std::uint64_t> ids;
    ids.reserve(requests.size());
    for (const JobRequest &r : requests)
        ids.push_back(svc.submit(r));
    svc.drain();

    std::ofstream file;
    if (!out_path.empty()) {
        file.open(out_path);
        if (!file)
            QGPU_FATAL("cannot write '", out_path, "'");
    }
    for (const std::uint64_t id : ids) {
        const JobResult r = svc.result(id);
        if (quiet)
            continue;
        const std::string line = r.toJson().toString();
        if (file.is_open())
            file << line << '\n';
        else
            std::printf("%s\n", line.c_str());
    }
    printCounters(svc);
    return 0;
}
