/**
 * @file
 * Shared vocabulary of the pluggable noise layer: sampled noise
 * events, Pauli mixture probabilities, and the tiny helpers every
 * channel source builds on.
 *
 * Every gate-attached channel in this subsystem is a *mixed-unitary*
 * channel: sampling draws a concrete error unitary (or nothing) with
 * state-INDEPENDENT probabilities. That restriction is what makes the
 * trajectory contracts hold at tolerance 0 — a shot is exactly the
 * ideal circuit with the sampled error gates materialized into it
 * (noise/model.hh, expandCircuit), so a batched shot, a per-shot
 * engine run of the expanded circuit, and a flat gate-by-gate replay
 * of the same expanded circuit are all bit-identical.
 *
 * Draw-path determinism (the fault-injector pattern,
 * fault/injector.hh): a shot's sampling runs on the one worker that
 * runs that shot, from the shot's own seeded RNG in documented order,
 * so a given (model, seed, circuit) tuple inserts exactly the same
 * error gates on every run — across host thread counts, device
 * counts, and chunk storage backends. Shots fan out across the pool
 * and are folded back in shot order (engine/batched.hh).
 */

#ifndef QGPU_NOISE_CHANNEL_HH
#define QGPU_NOISE_CHANNEL_HH

#include <cstddef>
#include <cstdint>

#include "common/rng.hh"
#include "qc/gate.hh"

namespace qgpu
{
namespace noise
{

/**
 * Probabilities of the non-identity Pauli errors of a 1q mixture;
 * the identity branch carries the remaining 1 - px - py - pz.
 */
struct PauliProbs
{
    double px = 0.0;
    double py = 0.0;
    double pz = 0.0;

    double total() const { return px + py + pz; }

    /** True iff a sampled error can be non-diagonal (X or Y). */
    bool nonDiagonal() const { return px > 0.0 || py > 0.0; }

    bool enabled() const { return total() > 0.0; }

    /** Symmetric depolarizing split: px = py = pz = p/3. */
    static PauliProbs depolarizing(double p)
    {
        return {p / 3.0, p / 3.0, p / 3.0};
    }
};

/**
 * One sampled stochastic error: @p gate is inserted immediately
 * after gate @p gateIndex of the *executed* (post-reorder,
 * post-fusion) sequence. Events produced for the same gate index
 * apply in production order.
 */
struct NoiseEvent
{
    std::size_t gateIndex = 0;
    Gate gate;
};

/**
 * The Pauli error gate for mixture branch @p which on @p qubit:
 * 1 = X, 2 = Y, 3 = Z. @p which must be in [1, 3].
 */
Gate pauliGate(int which, int qubit);

/**
 * Draw from a 1q Pauli mixture with exactly one rng draw; returns
 * 0 (identity — no event) or the branch index 1..3 for pauliGate.
 * The draw happens even when the mixture is all-zero IF called, so
 * callers must gate calls on enabled() to keep the documented draw
 * order stable.
 */
int samplePauli1(const PauliProbs &p, Rng &rng);

} // namespace noise
} // namespace qgpu

#endif // QGPU_NOISE_CHANNEL_HH
