/**
 * @file
 * NoiseModel: the builder composing the channel sources (pauli1q,
 * pauli2q, damping, idle, readout) per-gate / per-qubit, plus the
 * spec-string / JSON front end that `--noise-spec`, QGPU_NOISE_SPEC,
 * and the service layer share.
 *
 * Spec grammar (comma-separated entries, FaultSpec-style):
 *
 *   pauli1:p            symmetric depolarizing on 1q gates (px=py=pz=p/3)
 *   pauli1:px:py:pz     explicit mixture on 1q gates
 *   pauli1@q:...        per-qubit override (either value form)
 *   pauli2:p            uniform non-identity Pauli pair on >=2q gates
 *   damp:g              amplitude damping (Pauli twirl) on every
 *                       acted-on qubit;  damp@q:g  per-qubit
 *   readout:p           measurement flip;  readout@q:p  per-qubit
 *   idle@q:p            depolarizing on qubit q after EVERY gate
 *   idle@q:px:py:pz     (explicit mixture form; @q is required)
 *
 * A spec starting with '{' is parsed as JSON instead: an object with
 * the same channel names as keys; values are a number (the `p` form),
 * a 3-array (the px:py:pz form, pauli1/idle only), or an object
 * mapping qubit numbers (and optionally "default") to either value
 * form. Examples:
 *
 *   {"pauli1": 0.01, "pauli2": 0.002, "readout": 0.02}
 *   {"pauli1": {"default": 0.01, "3": [0.1, 0, 0]}, "idle": {"5": 0.2}}
 *
 * Sampling draw order (the determinism contract — goldens in
 * tests/test_noise.cc pin it): per executed gate, in sequence order:
 *   1. pauli1 (1q gates only, one draw if the qubit's mixture is on)
 *   2. pauli2 (>=2q gates, on the first two listed qubits)
 *   3. damping (per acted-on qubit, in the gate's listed order)
 *   4. idle (per configured qubit, ascending)
 * then ONE outcome draw (statevec/measure.hh sampleOutcome), then
 * readout flips (ascending qubit, armed qubits only). All draws come
 * from one per-shot RNG, in this order, on the one worker that runs
 * the shot. Shots themselves may run concurrently (engine/batched.hh:
 * the Shared-mode fan-out, folded back in shot order).
 */

#ifndef QGPU_NOISE_MODEL_HH
#define QGPU_NOISE_MODEL_HH

#include <span>
#include <string>
#include <vector>

#include "noise/damping.hh"
#include "noise/idle.hh"
#include "noise/pauli1q.hh"
#include "noise/pauli2q.hh"
#include "noise/readout.hh"
#include "qc/circuit.hh"

namespace qgpu
{
namespace noise
{

class NoiseModel
{
  public:
    NoiseModel() = default;

    /// @name Builder interface
    /// @{
    NoiseModel &pauli1(PauliProbs p);
    NoiseModel &pauli1On(int q, PauliProbs p);
    NoiseModel &pauli2(double p);
    NoiseModel &damping(double gamma);
    NoiseModel &dampingOn(int q, double gamma);
    NoiseModel &readout(double p);
    NoiseModel &readoutOn(int q, double p);
    NoiseModel &idle(int q, PauliProbs p);
    /// @}

    /** Any gate-attached channel armed (pauli1/pauli2/damp/idle)? */
    bool gateNoiseArmed() const;

    bool readoutArmed() const { return readout_.enabled(); }

    bool armed() const { return gateNoiseArmed() || readoutArmed(); }

    /**
     * Draw every gate-attached error for one shot, in the documented
     * order. Events come back sorted by gateIndex (ascending) with
     * same-index events in application order.
     */
    std::vector<NoiseEvent> sample(std::span<const Gate> gates,
                                   Rng &rng) const;

    /** Per-shot readout flip mask over @p num_qubits qubits. */
    Index sampleReadoutFlips(int num_qubits, Rng &rng) const;

    /**
     * Qubit-space mask of qubits a sampled error attached to @p gate
     * may act on NON-diagonally (X/Y). This is what the batched
     * planner feeds the noise-aware sweep scheduler and ORs into the
     * conservative union involvement mask: diagonal errors (Z) can
     * never move weight out of the pruned subspace, so they need no
     * arming under either involvement policy.
     */
    std::uint64_t touchableBits(const Gate &gate) const;

    /** The spec string this model was parsed from ("" if built
     *  programmatically). Folded into service cache keys verbatim. */
    const std::string &spec() const { return spec_; }

    /**
     * Parse a spec string or (when it starts with '{') a JSON object
     * per the grammar above. Empty input yields a disarmed model;
     * malformed input is fatal (user error).
     */
    static NoiseModel parse(const std::string &spec);

    /**
     * Resolve an ExecOptions::noiseSpec value: "env" reads
     * QGPU_NOISE_SPEC, "" and "none" disable noise, anything else is
     * parsed.
     */
    static NoiseModel resolve(const std::string &option);

  private:
    Pauli1qChannel pauli1_;
    Pauli2qChannel pauli2_;
    DampingChannel damp_;
    ReadoutChannel readout_;
    IdleChannel idle_;
    std::string spec_;
};

/**
 * Materialize one shot's trajectory: @p ordered with every sampled
 * error gate inserted after its attachment gate. Running the result
 * through any engine (with reordering/fusion off) or a flat
 * gate-by-gate replay is bit-identical to the batched shared-schedule
 * replay of the same events — the stochastic-differential contract.
 */
Circuit expandCircuit(const Circuit &ordered,
                      std::span<const NoiseEvent> events);

} // namespace noise
} // namespace qgpu

#endif // QGPU_NOISE_MODEL_HH
