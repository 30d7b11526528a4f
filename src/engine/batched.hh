/**
 * @file
 * Shot-batched execution: reorder, fuse and plan ONCE (one
 * ExecutionPlan, sched/plan.hh), then replay the plan for N seeded
 * shots. This is the stochastic workload class real simulators spend
 * their cycles on (noisy multi-shot jobs); batching lets every Q-GPU
 * optimization amortize across shots.
 *
 * ## Determinism contract
 *
 * Shot i runs on its own RNG, seeded with splitSeed(base, i). Every
 * stochastic draw of a shot — error sampling, the outcome draw,
 * readout flips — runs in the documented order (noise/model.hh) on the
 * one worker that runs that shot, so a (circuit, options, noise spec,
 * seed) tuple reproduces outcomes bit-identically across host thread
 * counts, device counts, and chunk storage backends. Per-shot states
 * obey the repo-wide bit-identity contract: a noisy shot equals a
 * flat gate-by-gate replay of its expanded circuit at tolerance 0.
 *
 * ## Shot fan-out (Shared mode)
 *
 * Shared-mode shots run concurrently on the process-wide pool,
 * shotsInFlight() at a time: one per simulator thread, but no more
 * fresh states than a quarter of host RAM holds. Each shot writes its
 * outcome, counters, optional state and optional SimError into its
 * own slot; the slots are folded in shot order, so the BatchResult
 * (outcomes, counts, stats, states, error) is exactly the serial
 * loop's. When a shot fails, workers start no later shot; the result
 * keeps the shots before the first failing one and that shot's error.
 * Shots already running past it still finish, so process-wide
 * registry totals such as kernel.* may include their work (the
 * mirrored shots.* / noise.* counters never do). PerShot mode stays
 * serial: it is the reference path, and it runs ExecutionEngine::run
 * under temporarily rewritten options.
 *
 * ## Noise × pruning
 *
 * A sampled X/Y on a not-yet-involved qubit invalidates the
 * involvement mask: the pruner would keep skipping chunks that now
 * hold weight. The two batch modes resolve this differently:
 *
 *   Shared   the plan is built under a CONSERVATIVE UNION mask —
 *            ideal involvement ∪ every qubit any shot's noise could
 *            touch non-diagonally (NoiseModel::touchableBits). The
 *            noise-aware sweep rule (sched/sweep.hh) closes a sweep
 *            at each gate whose attached noise can arm a new qubit,
 *            so arming only changes the zero predicate at sweep
 *            boundaries and the predicate stays sweep-constant, as
 *            applySweepChunked requires. Every shot replays the one
 *            plan through applyPlanSweep with its sampled errors
 *            inserted; shots where the error did not fire simply
 *            carry zero weight in the extra live chunks (exactness
 *            of pruning is preserved — it is merely less tight).
 *
 *   PerShot  each shot materializes its sampled errors into an
 *            expanded circuit and runs the engine's normal path, so
 *            the mask is rebuilt from the EXACT per-shot
 *            touched-by-noise set. No schedule reuse — the
 *            correctness reference and the path for noise models
 *            whose pruning loss under the union mask matters.
 */

#ifndef QGPU_ENGINE_BATCHED_HH
#define QGPU_ENGINE_BATCHED_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "engine/execution.hh"
#include "fault/sim_error.hh"
#include "noise/model.hh"
#include "statevec/state_vector.hh"

namespace qgpu
{

/** Outcome of one runBatched call. */
struct BatchResult
{
    std::string engine;
    std::uint64_t shots = 0;

    /** Post-readout measurement outcome of every shot, in order. */
    std::vector<Index> outcomes;

    /** Aggregated outcome -> count over all shots. */
    std::map<Index, std::uint64_t> counts;

    /** Per-shot final states (ExecOptions::keepShotStates only). */
    std::vector<StateVector> states;

    /** Real host seconds inside runBatched. */
    double wallSeconds = 0.0;

    /** Host seconds spent building the shared plan (Shared mode). */
    double scheduleSeconds = 0.0;

    /** shots.* / noise.* counters (statkeys). */
    StatSet stats;

    /**
     * Structured failure: the batch stops at the first shot whose
     * execution exhausts a fault-recovery policy; earlier shots'
     * outcomes are kept.
     */
    std::optional<SimError> error;

    bool ok() const { return !error.has_value(); }
};

/**
 * Shared-mode shots run at once for @p state_bytes states on a host
 * with @p ram_bytes of RAM and @p threads simulator threads:
 * min(threads, max(1, ram_bytes / 4 / state_bytes)), at least 1.
 */
int shotsInFlight(std::uint64_t state_bytes, std::uint64_t ram_bytes,
                  int threads);

} // namespace qgpu

#endif // QGPU_ENGINE_BATCHED_HH
