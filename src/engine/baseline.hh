/**
 * @file
 * The QISKit-Aer-style baseline (paper §III-B): static chunk
 * allocation — the first chunks that fit stay resident on the GPU,
 * the rest live on the CPU — and reactive, synchronous chunk exchange
 * whenever a group mixes CPU and GPU chunks. It walks an ExecutionPlan
 * built without pruning, reordering or fusion, and charges the initial
 * load, every per-gate host update, kernel and reactive copy, and the
 * final drain through a Charger like the other engines.
 */

#ifndef QGPU_ENGINE_BASELINE_HH
#define QGPU_ENGINE_BASELINE_HH

#include "engine/execution.hh"

namespace qgpu
{

/**
 * Static-allocation baseline engine (single GPU: device 0 of the
 * machine; the multi-GPU baseline splits the static region across
 * devices).
 */
class BaselineEngine : public ExecutionEngine
{
  public:
    BaselineEngine(Machine &machine, ExecOptions options);

    std::string name() const override { return "Baseline"; }

  protected:
    StateVector execute(const Circuit &circuit,
                        RunResult &result) override;
};

} // namespace qgpu

#endif // QGPU_ENGINE_BASELINE_HH
