#include "engine/batched.hh"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/bits.hh"
#include "common/cacheinfo.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "fault/injector.hh"
#include "fault/integrity.hh"
#include "statevec/chunked.hh"
#include "statevec/kernel_dispatch.hh"
#include "statevec/measure.hh"

namespace qgpu
{

namespace
{

// Restores result-affecting options around the PerShot inner runs:
// reordering/fusion already happened once at plan time (error gates
// are attached to the executed order, so re-running the passes over
// the expanded circuit could migrate them), and the inner run must
// keep its state for outcome sampling.
class ScopedBatchOptions
{
  public:
    ScopedBatchOptions(ExecOptions &options) : options_(options), saved_(options)
    {
        options_.reorder = ReorderKind::None;
        options_.fuseWidth = 0;
        options_.keepState = true;
    }
    ~ScopedBatchOptions() { options_ = saved_; }

  private:
    ExecOptions &options_;
    ExecOptions saved_;
};

/** Shots per fan-out block (bounds the live ShotSlots). */
constexpr std::uint64_t kShotBlock = 1024;

/** What every Shared-mode shot of one batch reads (never writes). */
struct SharedShotContext
{
    const ExecutionPlan &plan;
    const noise::NoiseModel &model;
    const ExecOptions &options;
    FaultSpec faults;
};

/**
 * One Shared-mode shot's results. Written only by the worker that ran
 * the shot; runBatched folds the slots in shot order, so stats carries
 * exactly the adds the shot made, in the order it made them.
 */
struct ShotSlot
{
    Index outcome = 0;
    StatSet stats;
    std::optional<StateVector> state;
    std::optional<SimError> error;
};

/**
 * Run one Shared-mode shot seeded with @p seed: sample its errors,
 * replay the plan's sweeps on a fresh state with the errors inserted,
 * then draw the outcome and readout flips. Every draw comes from the
 * shot's own RNG on the calling thread, in the documented order.
 */
void
runSharedShot(const SharedShotContext &ctx, std::uint64_t seed,
              ShotSlot &slot)
{
    const ExecutionPlan &plan = ctx.plan;
    const int n = plan.ordered.numQubits();
    Rng rng(seed);
    const auto events = ctx.model.sample(plan.ordered.gates(), rng);
    slot.stats.add(statkeys::noiseEvents,
                   static_cast<double>(events.size()));
    const KernelTier tier =
        ctx.options.fastMath ? KernelTier::Fast : KernelTier::Exact;
    try {
        FaultInjector injector(ctx.faults, ctx.options.faultSeed);
        ChunkedStateVector state(
            n, plan.chunkBits,
            makeStorageConfig(ctx.options, &injector));
        if (ctx.options.precision != Precision::f64)
            state.setPrecision(ctx.options.precision,
                               ctx.options.adaptiveThreshold);

        for (std::size_t s = 0; s < plan.sweeps.size(); ++s)
            applyPlanSweep(state, plan, s, tier, events, &slot.stats);

        slot.outcome = sampleOutcome(state, rng);
        if (ctx.model.readoutArmed()) {
            const Index flips = ctx.model.sampleReadoutFlips(n, rng);
            slot.stats.add(statkeys::noiseReadoutFlips,
                           static_cast<double>(bits::popcount(flips)));
            slot.outcome ^= flips;
        }
        if (ctx.options.keepShotStates)
            slot.state = state.takeFlat();
        slot.stats.add(statkeys::shotsTotal, 1.0);
    } catch (const SimException &e) {
        slot.error = e.error();
        slot.stats.add(intkeys::simErrors, 1.0);
    }
}

} // namespace

int
shotsInFlight(std::uint64_t state_bytes, std::uint64_t ram_bytes,
              int threads)
{
    const std::uint64_t budget = ram_bytes / 4;
    const std::uint64_t fit = std::max<std::uint64_t>(
        1, budget / std::max<std::uint64_t>(1, state_bytes));
    return static_cast<int>(
        std::min<std::uint64_t>(std::max(1, threads), fit));
}

BatchResult
ExecutionEngine::runBatched(const Circuit &circuit,
                            std::uint64_t shots,
                            std::span<const std::uint64_t> shot_seeds)
{
    const WallClock wall;
    BatchResult br;
    br.engine = name();
    br.shots = shots;
    if (!shot_seeds.empty() && shot_seeds.size() != shots)
        QGPU_FATAL("runBatched: ", shot_seeds.size(),
                   " shot seeds for ", shots, " shots");

    const noise::NoiseModel model =
        noise::NoiseModel::resolve(options_.noiseSpec);
    const int n = circuit.numQubits();
    auto seed_for = [&](std::uint64_t i) {
        return shot_seeds.empty()
                   ? splitSeed(options_.shotSeed, i)
                   : shot_seeds[i];
    };

    if (options_.batchMode == BatchMode::PerShot) {
        // Apply the order-changing passes once so sampled errors
        // attach to the same executed sequence Shared mode sees —
        // the two modes are bit-identical per shot.
        const Circuit ordered = orderCircuit(circuit, options_);
        const std::span<const Gate> gates(ordered.gates());

        for (std::uint64_t s = 0; s < shots && br.ok(); ++s) {
            Rng rng(seed_for(s));
            const auto events = model.sample(gates, rng);
            const Circuit expanded =
                noise::expandCircuit(ordered, events);
            RunResult rr;
            {
                ScopedBatchOptions guard(options_);
                rr = run(expanded);
            }
            if (!rr.ok()) {
                br.error = rr.error;
                break;
            }
            br.stats.add(statkeys::noiseEvents,
                         static_cast<double>(events.size()));
            Index outcome = sampleOutcome(rr.state, rng);
            if (model.readoutArmed()) {
                const Index flips = model.sampleReadoutFlips(n, rng);
                br.stats.add(statkeys::noiseReadoutFlips,
                             static_cast<double>(
                                 bits::popcount(flips)));
                outcome ^= flips;
            }
            br.outcomes.push_back(outcome);
            ++br.counts[outcome];
            if (options_.keepShotStates)
                br.states.push_back(std::move(rr.state));
            br.stats.add(statkeys::shotsTotal, 1.0);
        }
    } else {
        const WallClock plan_wall;
        Circuit ordered = orderCircuit(circuit, options_);
        std::vector<std::uint64_t> noise_bits;
        for (const Gate &gate : ordered.gates())
            noise_bits.push_back(model.touchableBits(gate));
        const int chunk_bits = baseChunkBits(n);
        const ExecutionPlan plan = buildPlan(
            std::move(ordered), options_.prune, options_.involvement,
            chunk_bits, chunk_bits, std::move(noise_bits));
        br.scheduleSeconds = plan_wall.seconds();
        br.stats.add(statkeys::shotsPlans, 1.0);
        br.stats.set(statkeys::shotsPlanSweeps,
                     static_cast<double>(plan.sweeps.size()));
        br.stats.set(statkeys::noiseArmedSites,
                     static_cast<double>(plan.armedSites));

        const SharedShotContext ctx{
            plan, model, options_,
            FaultSpec::resolve(options_.faultSpec)};
        const int workers =
            shotsInFlight(stateBytes(n), hostRamBytes(), simThreads());
        // Shots run in blocks so the per-shot slots stay bounded for
        // huge batches; each block fans out over `workers` pool tasks
        // pulling shot indices in order, then folds in shot order.
        for (std::uint64_t base = 0; base < shots && br.ok();
             base += kShotBlock) {
            const std::uint64_t count =
                std::min(kShotBlock, shots - base);
            std::vector<ShotSlot> slots(count);
            std::atomic<std::uint64_t> next{0};
            std::atomic<std::uint64_t> first_failed{count};
            parallelFor(
                0, static_cast<std::uint64_t>(workers), workers,
                [&](std::uint64_t, std::uint64_t) {
                    for (std::uint64_t i;
                         (i = next.fetch_add(1)) < count &&
                         i < first_failed.load();) {
                        runSharedShot(ctx, seed_for(base + i),
                                      slots[i]);
                        if (!slots[i].error)
                            continue;
                        std::uint64_t seen = first_failed.load();
                        while (i < seen &&
                               !first_failed.compare_exchange_weak(
                                   seen, i)) {
                        }
                    }
                },
                1);
            for (ShotSlot &slot : slots) {
                br.stats.merge(slot.stats);
                if (slot.error) {
                    br.error = std::move(slot.error);
                    break;
                }
                br.outcomes.push_back(slot.outcome);
                ++br.counts[slot.outcome];
                if (slot.state)
                    br.states.push_back(std::move(*slot.state));
            }
        }
    }

    br.wallSeconds = wall.seconds();

    // Mirror the batch counters into the process-wide registry
    // (ExecutionEngine::run does the same for integrity/storage).
    auto &registry = MetricsRegistry::global();
    for (const auto &key : br.stats.names()) {
        if ((key.rfind("noise.", 0) == 0 ||
             key.rfind("shots.", 0) == 0) &&
            br.stats.get(key) != 0.0) {
            registry.add(key, br.stats.get(key));
        }
    }
    return br;
}

} // namespace qgpu
