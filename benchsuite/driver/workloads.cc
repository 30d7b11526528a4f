#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <thread>

#include "circuits/circuits.hh"
#include "common/rng.hh"
#include "engine/batched.hh"
#include "fault/checksum.hh"
#include "harness/experiment.hh"
#include "qc/canonical.hh"
#include "service/scheduler.hh"
#include "service/traffic.hh"
#include "statevec/apply.hh"
#include "statevec/chunked.hh"

namespace qgpu
{
namespace benchsuite
{

namespace
{

/**
 * Generator seed of @p family under --seed @p seed. The seed drives
 * hchain, the one family whose generator seed changes gate values
 * (its rotation angles) but not the circuit's gates, their order or
 * its involvement profile; every other family is the registry's
 * standard instance. Other families' seeds change the shape of the
 * circuit and with it the work: re-seeding rqc alone gave the modeled
 * time of large_state a 14% quartile spread over ten seeds. Each seed
 * thus feeds the simulator different amplitudes at the same amount of
 * work.
 */
std::uint64_t
familySeed(const std::string &family, std::uint64_t seed)
{
    return family == "hchain" ? splitSeed(seed, 0) | 1 : 0;
}

std::vector<Circuit>
familyCircuits(const std::vector<std::string> &families, int qubits,
               std::uint64_t seed)
{
    std::vector<Circuit> out;
    for (const auto &family : families)
        out.push_back(circuits::makeBenchmark(
            family, qubits, familySeed(family, seed)));
    return out;
}

/** Bench options with the final state kept for the oracle, and no
 *  fault spec or kernel tier picked up from the environment. */
ExecOptions
runOptions()
{
    ExecOptions o = harness::benchOptions();
    o.keepState = true;
    o.faultSpec = "none";
    o.fastMath = false;
    return o;
}

/** Add a run's virtual-time phases and counters to @p layers. */
void
collectRun(const RunResult &r, int devices, Layers &layers)
{
    const auto totals = r.trace.phaseTotals();
    const auto exposed = [&](const char *phase) {
        const auto it = totals.find(phase);
        return it == totals.end() ? 0.0 : it->second.exposed;
    };
    double covered = 0.0;
    for (const auto &entry : totals)
        covered += entry.second.exposed;
    layers["sim.h2d_s"] += exposed(phases::h2d);
    layers["sim.d2h_s"] += exposed(phases::d2h);
    layers["sim.compute_s"] += exposed(phases::compute);
    layers["sim.compress_s"] += exposed(phases::compress);
    layers["sim.peer_s"] += exposed(phases::peer);
    layers["sim.host_s"] += exposed(phases::hostCompute);
    layers["sim.idle_s"] += r.totalTime - covered;

    const StatSet &s = r.stats;
    layers["sim.h2d_bytes"] += s.get(statkeys::bytesH2d);
    layers["sim.d2h_bytes"] += s.get(statkeys::bytesD2h);
    layers["prune.chunks_processed"] += s.get(statkeys::chunksProcessed);
    layers["prune.chunks_pruned"] += s.get(statkeys::chunksPruned);
    layers["sched.exchange_bytes"] += s.get(statkeys::exchangeBytes);
    layers["sched.exchange_phases"] += s.get(statkeys::exchangePhases);
    if (devices > 1) {
        double max_busy = 0.0, sum_busy = 0.0;
        for (int d = 0; d < devices; ++d) {
            const double busy =
                s.get("device." + std::to_string(d) + ".busy");
            max_busy = std::max(max_busy, busy);
            sum_busy += busy;
        }
        if (sum_busy > 0.0) {
            layers["_imbalance.sum"] +=
                max_busy / (sum_busy / static_cast<double>(devices));
            layers["_imbalance.n"] += 1.0;
        }
    }
    layers["statevec.evictions"] += s.get(statkeys::storageEvictions);
    layers["statevec.refills"] += s.get(statkeys::storageMisses);
    layers["statevec.zero_fills"] += s.get(statkeys::storageZeroFills);
    layers["_statevec.hits"] += s.get(statkeys::storageHits);
    layers["statevec.peak_host_bytes"] =
        std::max(layers["statevec.peak_host_bytes"],
                 s.get(statkeys::storagePeakBytes));
    layers["engine.run_wall_s"] += r.wallSeconds;
}

/** One engine run of an engine-driven workload. */
struct EngineOp
{
    std::string label;
    /** harness::makeEngine name. */
    std::string engine;
    /** Ops whose modeled times the speedup metrics compare. */
    std::string group;
    std::size_t circuit = 0;
    std::function<Machine()> machine;
    ExecOptions options = runOptions();
    /** Oracle state this op is checked against (cached per circuit). */
    std::string reference;
    /** Allowed per-component error; 0 demands bit-identity. */
    double tol = 0.0;
};

/**
 * Workloads made of independent engine runs. The oracle runs each op
 * once, checks its state against the op's reference, and records the
 * state's digest; every later run of the op must reproduce that digest
 * bit for bit.
 */
class EngineWorkload : public Workload
{
  public:
    explicit EngineWorkload(const Config &config) : config_(config) {}

    void oracle() override;
    void setup() override;
    Pass pass(Traced *traced, SpanLog *spans, int parent) override;

  protected:
    virtual std::vector<Circuit> buildCircuits() const = 0;
    virtual std::vector<EngineOp> buildOps() const = 0;
    /** The oracle state named @p key for @p circuit. */
    virtual StateVector reference(const std::string &key,
                                  const Circuit &circuit) const = 0;

    const Config config_;

  private:
    std::vector<Circuit> circuits_;
    std::vector<EngineOp> ops_;
    std::vector<std::unique_ptr<Machine>> machines_;
    std::vector<std::unique_ptr<ExecutionEngine>> engines_;
    std::vector<std::uint64_t> digest_;
    std::vector<bool> valid_;
};

void
EngineWorkload::oracle()
{
    circuits_ = buildCircuits();
    ops_ = buildOps();
    digest_.assign(ops_.size(), 0);
    valid_.assign(ops_.size(), false);
    // Ops are grouped by circuit, so at most one circuit's reference
    // states are alive at a time.
    std::map<std::string, StateVector> refs;
    std::size_t refs_circuit = ops_.size();
    for (std::size_t i = 0; i < ops_.size(); ++i) {
        const EngineOp &op = ops_[i];
        const Circuit &circuit = circuits_[op.circuit];
        if (op.circuit != refs_circuit) {
            refs.clear();
            refs_circuit = op.circuit;
        }
        Machine machine = op.machine();
        const RunResult r =
            harness::makeEngine(op.engine, machine, op.options)
                ->run(circuit);
        if (!r.ok())
            continue;
        auto it = refs.find(op.reference);
        if (it == refs.end())
            it = refs.emplace(op.reference,
                              reference(op.reference, circuit))
                     .first;
        valid_[i] = statesAgree(r.state, it->second, op.tol);
        digest_[i] = stateDigest(r.state);
    }
}

void
EngineWorkload::setup()
{
    circuits_ = buildCircuits();
    ops_ = buildOps();
    machines_.clear();
    engines_.clear();
    for (const EngineOp &op : ops_) {
        machines_.push_back(std::make_unique<Machine>(op.machine()));
        engines_.push_back(harness::makeEngine(
            op.engine, *machines_.back(), op.options));
    }
}

Pass
EngineWorkload::pass(Traced *traced, SpanLog *spans, int parent)
{
    Pass p;
    std::vector<double> models(ops_.size(), 0.0);
    for (std::size_t i = 0; i < ops_.size(); ++i) {
        const EngineOp &op = ops_[i];
        ExecutionEngine *engine = engines_[i].get();
        std::unique_ptr<ExecutionEngine> traced_engine;
        if (traced) {
            ExecOptions o = op.options;
            o.recordTrace = true;
            traced_engine =
                harness::makeEngine(op.engine, *machines_[i], o);
            engine = traced_engine.get();
        }
        const Circuit &circuit = circuits_[op.circuit];

        const double t0 = now();
        const RunResult r = engine->run(circuit);
        const double t1 = now();

        p.wall += t1 - t0;
        p.latencies.push_back(t1 - t0);
        p.model += r.totalTime;
        ++p.ops;
        if (!valid_[i] || !r.ok() || stateDigest(r.state) != digest_[i])
            ++p.failed;
        models[i] = r.totalTime;
        if (traced) {
            const int devices = machines_[i]->numDevices();
            spans->add(op.label, t0, t1, parent);
            collectRun(r, devices, traced->layers);
            ReplayOp rop;
            rop.label = op.label;
            rop.circuit = &circuit;
            rop.options = engine->options();
            rop.devices = devices;
            rop.wall = t1 - t0;
            traced->replay.push_back(std::move(rop));
        }
    }
    if (traced) {
        // Modeled speedups: Baseline over Q-GPU per group, and one
        // device over D devices per (group, engine).
        std::map<std::string, double> one_device;
        for (std::size_t i = 0; i < ops_.size(); ++i)
            if (machines_[i]->numDevices() == 1)
                one_device[ops_[i].group + "|" + ops_[i].engine] =
                    models[i];
        std::vector<double> qgpu, devices;
        for (std::size_t i = 0; i < ops_.size(); ++i) {
            const EngineOp &op = ops_[i];
            if (machines_[i]->numDevices() > 1) {
                devices.push_back(
                    one_device[op.group + "|" + op.engine] / models[i]);
            } else if (op.engine == "qgpu") {
                const auto base =
                    one_device.find(op.group + "|baseline");
                if (base != one_device.end())
                    qgpu.push_back(base->second / models[i]);
            }
        }
        traced->layers["sim.qgpu_speedup"] = geomean(qgpu);
        traced->layers["sim.device_speedup"] = geomean(devices);
    }
    return p;
}

class PaperVersions : public EngineWorkload
{
  public:
    using EngineWorkload::EngineWorkload;

  private:
    int qubits() const { return config_.smoke ? 10 : 16; }

    std::vector<Circuit> buildCircuits() const override
    {
        return familyCircuits(circuits::benchmarkNames(), qubits(),
                              config_.seed);
    }

    std::vector<EngineOp> buildOps() const override
    {
        static const char *versions[] = {"baseline", "naive",
                                         "overlap",  "pruning",
                                         "reorder",  "qgpu"};
        const int n = qubits();
        std::vector<EngineOp> ops;
        const auto &families = circuits::benchmarkNames();
        for (std::size_t c = 0; c < families.size(); ++c) {
            for (const char *version : versions) {
                EngineOp op;
                op.label = families[c] + "/" + version;
                op.engine = version;
                op.group = families[c];
                op.circuit = c;
                op.machine = [n] { return harness::benchMachine(n); };
                op.reference = "reference";
                op.tol = 1e-10;
                ops.push_back(std::move(op));
            }
        }
        return ops;
    }

    StateVector reference(const std::string &,
                          const Circuit &circuit) const override
    {
        return simulateReference(circuit);
    }
};

class MultiDevice : public EngineWorkload
{
  public:
    using EngineWorkload::EngineWorkload;

  private:
    struct Fabric
    {
        const char *name;
        DeviceSpec (*spec)();
    };
    static constexpr Fabric kFabrics[] = {
        {"pcie", machines::p4},
        {"nvlink", machines::v100Nvlink},
    };

    int qubits() const { return config_.smoke ? 10 : 16; }

    std::vector<Circuit> buildCircuits() const override
    {
        return familyCircuits(circuits::benchmarkNames(), qubits(),
                              config_.seed);
    }

    std::vector<EngineOp> buildOps() const override
    {
        const int n = qubits();
        std::vector<EngineOp> ops;
        const auto &families = circuits::benchmarkNames();
        for (std::size_t c = 0; c < families.size(); ++c) {
            for (const Fabric &fabric : kFabrics) {
                for (const int devices : {1, 2, 4, 8}) {
                    EngineOp op;
                    op.label = families[c] + "/" + fabric.name + "/x" +
                               std::to_string(devices);
                    op.engine = "qgpu";
                    op.group = families[c] + "/" + fabric.name;
                    op.circuit = c;
                    const auto spec = fabric.spec;
                    op.machine = [n, spec, devices] {
                        return machines::makeScaled(n, spec(), 1.0,
                                                    devices);
                    };
                    // One device is checked against the reference
                    // simulator; more devices must reproduce the
                    // one-device state bit for bit.
                    op.reference = devices == 1
                                       ? std::string("reference")
                                       : std::string(fabric.name);
                    op.tol = devices == 1 ? 1e-10 : 0.0;
                    ops.push_back(std::move(op));
                }
            }
        }
        return ops;
    }

    StateVector reference(const std::string &key,
                          const Circuit &circuit) const override
    {
        for (const Fabric &fabric : kFabrics) {
            if (key == fabric.name) {
                Machine machine = machines::makeScaled(
                    qubits(), fabric.spec(), 1.0, 1);
                return harness::makeEngine("qgpu", machine,
                                           runOptions())
                    ->run(circuit)
                    .state;
            }
        }
        return simulateReference(circuit);
    }
};

class LargeState : public EngineWorkload
{
  public:
    using EngineWorkload::EngineWorkload;

  private:
    static const std::vector<std::string> &families()
    {
        static const std::vector<std::string> names = {"qft", "rqc",
                                                       "iqp"};
        return names;
    }

    int qubits() const { return config_.smoke ? 12 : 22; }

    std::vector<Circuit> buildCircuits() const override
    {
        return familyCircuits(families(), qubits(), config_.seed);
    }

    std::vector<EngineOp> buildOps() const override
    {
        const int n = qubits();
        std::vector<EngineOp> ops;
        for (std::size_t c = 0; c < families().size(); ++c) {
            EngineOp op;
            op.label = families()[c] + "/qgpu";
            op.engine = "qgpu";
            op.group = families()[c];
            op.circuit = c;
            op.machine = [n] { return harness::benchMachine(n); };
            op.reference = "chunked";
            op.tol = 1e-10;
            ops.push_back(std::move(op));
        }
        return ops;
    }

    StateVector reference(const std::string &,
                          const Circuit &circuit) const override
    {
        const int n = circuit.numQubits();
        ChunkedStateVector state(n, n - std::min(n, 8));
        applyCircuitChunked(state, circuit);
        return state.toFlat();
    }
};

class BoundedStorage : public EngineWorkload
{
  public:
    using EngineWorkload::EngineWorkload;

  private:
    static constexpr int kQubits = 10;
    static constexpr Index kWorkingSet = 8;

    /** Every family but hchain and qaoa: one run of either takes 2-3 s
     *  here (tens of thousands of evictions), more than a pass can
     *  spend; the families kept exercise the same eviction path. */
    static const std::vector<std::string> &families()
    {
        static const std::vector<std::string> names = {
            "rqc", "gs", "hlf", "qft", "iqp", "qf", "bv", "random"};
        return names;
    }

    std::vector<Circuit> buildCircuits() const override
    {
        return familyCircuits(families(), kQubits, config_.seed);
    }

    std::vector<EngineOp> buildOps() const override
    {
        std::vector<EngineOp> ops;
        for (std::size_t c = 0; c < families().size(); ++c) {
            EngineOp op;
            op.label = families()[c] + "/compressed";
            op.engine = "qgpu";
            op.group = families()[c];
            op.circuit = c;
            op.machine = [] { return harness::benchMachine(kQubits); };
            op.options.storage = StorageKind::Compressed;
            op.options.workingSetChunks = kWorkingSet;
            op.reference = "raw";
            op.tol = 0.0;
            ops.push_back(std::move(op));
        }
        return ops;
    }

    StateVector reference(const std::string &,
                          const Circuit &circuit) const override
    {
        Machine machine = harness::benchMachine(kQubits);
        return harness::makeEngine("qgpu", machine, runOptions())
            ->run(circuit)
            .state;
    }
};

/**
 * Noisy shot batches. The oracle runs each batch once and records its
 * outcome stream; every later batch must reproduce it bit for bit and
 * its counts must sum to the shot count. runBatched charges no
 * modeled time, so model_s is the modeled time of one ideal run of
 * each circuit, taken in the oracle phase.
 */
class NoisyShots : public Workload
{
  public:
    explicit NoisyShots(const Config &config)
        : config_(config), noise_(noise::NoiseModel::parse(kNoise))
    {
    }

    void oracle() override
    {
        setup();
        digest_.assign(circuits_.size(), 0);
        valid_.assign(circuits_.size(), false);
        model_.assign(circuits_.size(), 0.0);
        for (std::size_t i = 0; i < circuits_.size(); ++i) {
            const BatchResult b =
                engines_[i]->runBatched(circuits_[i], shots());
            valid_[i] = batchOk(b);
            digest_[i] = outcomeDigest(b);
            model_[i] = engines_[i]->run(circuits_[i]).totalTime;
        }
    }

    void setup() override
    {
        circuits_ = familyCircuits(circuits::benchmarkNames(), kQubits,
                                   config_.seed);
        machines_.clear();
        engines_.clear();
        for (std::size_t i = 0; i < circuits_.size(); ++i) {
            ExecOptions o = runOptions();
            o.noiseSpec = kNoise;
            o.batchMode = BatchMode::Shared;
            o.shotSeed = splitSeed(config_.seed, i + 1);
            machines_.push_back(std::make_unique<Machine>(
                harness::benchMachine(kQubits)));
            engines_.push_back(
                harness::makeEngine("qgpu", *machines_.back(), o));
        }
    }

    Pass pass(Traced *traced, SpanLog *spans, int parent) override
    {
        Pass p;
        for (std::size_t i = 0; i < circuits_.size(); ++i) {
            const double t0 = now();
            const BatchResult b =
                engines_[i]->runBatched(circuits_[i], shots());
            const double t1 = now();
            p.wall += t1 - t0;
            p.latencies.push_back(t1 - t0);
            p.model += model_[i];
            ++p.ops;
            if (!valid_[i] || !batchOk(b) ||
                outcomeDigest(b) != digest_[i])
                ++p.failed;
            if (traced) {
                const std::string label =
                    circuits::benchmarkNames()[i] + "/shots";
                spans->add(label, t0, t1, parent);
                Layers &l = traced->layers;
                l["noise.events"] += b.stats.get(statkeys::noiseEvents);
                l["engine.sweep_replays"] +=
                    b.stats.get(statkeys::shotsSweepReplays);
                l["engine.sweep_splits"] +=
                    b.stats.get(statkeys::shotsSweepSplits);
                l["engine.plan_s"] += b.scheduleSeconds;
                l["engine.run_wall_s"] += b.wallSeconds;
                ReplayOp rop;
                rop.label = label;
                rop.circuit = &circuits_[i];
                rop.options = engines_[i]->options();
                rop.shots = shots();
                rop.noise = &noise_;
                rop.wall = t1 - t0;
                traced->replay.push_back(std::move(rop));
            }
        }
        return p;
    }

  private:
    static constexpr int kQubits = 10;
    static constexpr const char *kNoise = "pauli1:0.01,readout:0.01";

    std::uint64_t shots() const { return config_.smoke ? 16 : 256; }

    bool batchOk(const BatchResult &b) const
    {
        std::uint64_t total = 0;
        for (const auto &entry : b.counts)
            total += entry.second;
        return b.ok() && b.outcomes.size() == shots() &&
               total == shots();
    }

    static std::uint64_t outcomeDigest(const BatchResult &b)
    {
        return checksumBytes(b.outcomes.data(),
                             b.outcomes.size() * sizeof(Index));
    }

    const Config config_;
    const noise::NoiseModel noise_;
    std::vector<Circuit> circuits_;
    std::vector<std::unique_ptr<Machine>> machines_;
    std::vector<std::unique_ptr<ExecutionEngine>> engines_;
    std::vector<std::uint64_t> digest_;
    std::vector<bool> valid_;
    std::vector<double> model_;
};

/**
 * The job service under open-loop load: one thread submits the trace
 * at a fixed rate, sleeping between submissions, and every job is
 * timed from its due time, so a stall charges the jobs queued behind
 * it. Each pass runs the same trace on a fresh service (cold cache).
 * Every job must end Done with a unit-norm state and counts summing to
 * its shot count.
 */
class ServiceMix : public Workload
{
  public:
    explicit ServiceMix(const Config &config) : config_(config) {}

    void oracle() override {}

    /**
     * One fixed reference trace (arrivals, tenants, families, sizes,
     * repeats): generateTraffic's seed decides all of them, and over
     * its seeds 1 to 10 the modeled work has an 8.5% quartile spread
     * (quartile distance over median). As in the other
     * workloads, --seed re-seeds the hchain circuits; it also re-seeds
     * every job's sampling. Equal seeds map to equal seeds, so a
     * repeat still repeats.
     */
    void setup() override
    {
        traffic_ = service::generateTraffic(trafficConfig());
        for (service::JobRequest &r : traffic_) {
            if (familySeed(r.circuit.family, config_.seed) != 0)
                r.circuit.seed = splitSeed(config_.seed, r.circuit.seed);
            r.seed = splitSeed(config_.seed, r.seed);
        }
    }

    Pass pass(Traced *traced, SpanLog *spans, int parent) override
    {
        return runOpenLoop(traffic_, traced, spans, parent);
    }

  private:
    double rate() const { return config_.smoke ? 2000.0 : 400.0; }

    service::TrafficConfig trafficConfig() const
    {
        service::TrafficConfig t;
        t.jobs = config_.smoke ? 20 : 1000;
        t.repeatFraction = 0.2;
        t.tenants = 4;
        t.minQubits = config_.smoke ? 8 : 10;
        t.maxQubits = config_.smoke ? 9 : 13;
        t.engine = "qgpu";
        t.shots = config_.smoke ? 16 : 256;
        t.seed = 1;
        return t;
    }

    Pass runOpenLoop(const std::vector<service::JobRequest> &requests,
                     Traced *traced, SpanLog *spans, int parent);

    void traceJobs(const std::vector<service::JobRequest> &requests,
                   const std::vector<service::JobResult> &results,
                   const std::vector<double> &due,
                   const std::vector<double> &sent,
                   const service::JobService &svc, Traced &traced,
                   SpanLog &spans, int parent);

    const Config config_;
    std::vector<service::JobRequest> traffic_;
    /** Canonical circuits of the traced pass's executed jobs (the
     *  replay ops point into this). */
    std::vector<Circuit> replayCircuits_;
};

Pass
ServiceMix::runOpenLoop(const std::vector<service::JobRequest> &requests,
                        Traced *traced, SpanLog *spans, int parent)
{
    service::ServiceConfig cfg;
    cfg.maxActiveJobs = 4;
    cfg.hostThreads = config_.threads;
    cfg.maxQueueDepth = static_cast<int>(requests.size()) + 1;
    service::JobService svc(cfg);

    const std::size_t n = requests.size();
    std::vector<double> due(n), sent(n);
    std::vector<std::uint64_t> ids(n);
    const double start = now();
    for (std::size_t i = 0; i < n; ++i) {
        due[i] = start + static_cast<double>(i) / rate();
        const double wait = due[i] - now();
        if (wait > 0.0)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(wait));
        sent[i] = now();
        ids[i] = svc.submit(requests[i]);
    }
    std::vector<service::JobResult> results;
    results.reserve(n);
    for (const std::uint64_t id : ids)
        results.push_back(svc.wait(id));

    // Service timestamps are on the service's clock; a job's times
    // map onto the benchmark clock through its submit call.
    Pass p;
    double last = start;
    for (std::size_t i = 0; i < n; ++i) {
        const service::JobResult &r = results[i];
        const double done = sent[i] + (r.doneSeconds - r.submitSeconds);
        last = std::max(last, done);
        p.latencies.push_back(done - due[i]);
        p.model += r.totalVTime;
        ++p.ops;
        std::uint64_t total = 0;
        for (const auto &entry : r.counts)
            total += entry.second;
        const bool ok = r.status == service::JobStatus::Done &&
                        std::abs(r.norm - 1.0) <= 1e-9 &&
                        total == requests[i].shots;
        if (!ok)
            ++p.failed;
    }
    p.wall = last - start;
    if (traced)
        traceJobs(requests, results, due, sent, svc, *traced, *spans,
                  parent);
    return p;
}

void
ServiceMix::traceJobs(const std::vector<service::JobRequest> &requests,
                      const std::vector<service::JobResult> &results,
                      const std::vector<double> &due,
                      const std::vector<double> &sent,
                      const service::JobService &svc, Traced &traced,
                      SpanLog &spans, int parent)
{
    const std::size_t n = requests.size();
    Layers &l = traced.layers;
    std::vector<double> queue_wait, run, late;
    std::vector<double> lane_free; // per display lane: busy until
    replayCircuits_.clear();
    replayCircuits_.reserve(n);
    std::vector<std::size_t> leaders;
    for (std::size_t i = 0; i < n; ++i) {
        const service::JobResult &r = results[i];
        const auto to_bench = [&](double t) {
            return sent[i] + (t - r.submitSeconds);
        };
        const double start = to_bench(r.startSeconds);
        const double done = to_bench(r.doneSeconds);
        late.push_back(sent[i] - due[i]);
        if (!r.cacheHit && !r.coalesced) {
            queue_wait.push_back(r.startSeconds - r.submitSeconds);
            run.push_back(r.doneSeconds - r.startSeconds);
            leaders.push_back(i);
        }

        std::size_t lane = 0;
        while (lane < lane_free.size() && lane_free[lane] > sent[i])
            ++lane;
        if (lane == lane_free.size())
            lane_free.push_back(0.0);
        lane_free[lane] = done;
        const int job = spans.add("job " + std::to_string(r.id) + " " +
                                      requests[i].circuit.family,
                                  sent[i], done, parent,
                                  static_cast<int>(lane) + 1);
        if (!r.cacheHit) {
            spans.add("queue", sent[i], std::max(sent[i], start), job,
                      static_cast<int>(lane) + 1);
            spans.add("run", std::max(sent[i], start), done, job,
                      static_cast<int>(lane) + 1);
        }
    }

    l["service.hit_frac"] =
        static_cast<double>(svc.counter("service.cache.hit")) /
        static_cast<double>(n);
    l["service.coalesced"] = static_cast<double>(
        svc.counter("service.singleflight.coalesced"));
    l["service.rejected"] =
        static_cast<double>(svc.counter("service.rejected"));
    l["service.queue_wait_p50_s"] = quantile(queue_wait, 0.50);
    l["service.queue_wait_p99_s"] = quantile(queue_wait, 0.99);
    l["service.run_p50_s"] = quantile(run, 0.50);
    l["service.run_p99_s"] = quantile(run, 0.99);
    l["service.late_p99_s"] = quantile(late, 0.99);

    // Hashing happens on the submit path for every job.
    const double t0 = now();
    for (const service::JobRequest &request : requests)
        (void)canonicalCircuitHash(request.circuit.build());
    const double t1 = now();
    spans.add("hash", t0, t1, parent);
    l["service.hash_s"] = t1 - t0;

    // The executed (leader) jobs, as the service runs them: the
    // canonical circuit on the qgpu engine, then sampling.
    for (const std::size_t i : leaders) {
        const service::JobRequest &request = requests[i];
        replayCircuits_.push_back(
            canonicalCircuit(request.circuit.build()));
        Machine machine = harness::benchMachine(request.circuit.qubits);
        ExecOptions o = runOptions();
        o.hostThreads = config_.threads;
        ReplayOp rop;
        rop.label = "job " + std::to_string(results[i].id);
        rop.circuit = &replayCircuits_.back();
        rop.options =
            harness::makeEngine(request.engine, machine, o)->options();
        rop.samples = request.shots;
        rop.wall = results[i].doneSeconds - results[i].startSeconds;
        traced.replay.push_back(std::move(rop));
    }
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_versions", "multi_device", "large_state",
        "bounded_storage", "noisy_shots", "service_mix",
    };
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Config &config)
{
    if (name == "paper_versions")
        return std::make_unique<PaperVersions>(config);
    if (name == "multi_device")
        return std::make_unique<MultiDevice>(config);
    if (name == "large_state")
        return std::make_unique<LargeState>(config);
    if (name == "bounded_storage")
        return std::make_unique<BoundedStorage>(config);
    if (name == "noisy_shots")
        return std::make_unique<NoisyShots>(config);
    if (name == "service_mix")
        return std::make_unique<ServiceMix>(config);
    return nullptr;
}

} // namespace benchsuite
} // namespace qgpu
