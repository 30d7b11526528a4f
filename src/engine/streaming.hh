/**
 * @file
 * The dynamic-allocation streaming engine family. With every feature
 * flag off it is the paper's Naive version (§III-D): every chunk makes
 * a synchronous round trip through the GPU for every gate. The Q-GPU
 * optimizations stack on top through ExecOptions:
 *
 *  - overlap:  double-buffered, bidirectional proactive transfer
 *              (§IV-A);
 *  - prune:    zero-amplitude chunk pruning with dynamic chunk size
 *              (§IV-B, Algorithm 1);
 *  - reorder:  dependency-aware gate reordering (§IV-C);
 *  - compress: GFC compression of non-zero chunks (§IV-D).
 *
 * With more than one device in the machine, batches are assigned to
 * GPUs round-robin (§V-E, Fig. 18) while the state exceeds the
 * devices' combined memory. When every device can hold its balanced
 * shard (sched/shard.hh), the engine switches to the sharded-resident
 * path instead: each device keeps its top-bits shard resident, sweeps
 * run concurrently on every device's compute engine, and sweeps whose
 * coupled chunk-index bits cross the shard boundary pay one batched
 * gather/scatter exchange phase over the peer links. A state that
 * fits one GPU is that path's one-device case: one bulk upload,
 * kernels only, one bulk download, and no exchange.
 *
 * Both paths walk one ExecutionPlan (sched/plan.hh): streaming sizes
 * each sweep dynamically and rechunks between sweeps, the sharded
 * path keeps the base chunk size. Each applies a sweep with
 * applyPlanSweep, then charges its per-gate work through a Charger
 * (sim/charge.hh).
 */

#ifndef QGPU_ENGINE_STREAMING_HH
#define QGPU_ENGINE_STREAMING_HH

#include "compress/gfc.hh"
#include "engine/execution.hh"
#include "statevec/apply.hh"

namespace qgpu
{

/**
 * Naive / Overlap / Pruning / Reorder / Q-GPU engine, selected by the
 * feature flags in ExecOptions.
 */
class StreamingEngine : public ExecutionEngine
{
  public:
    /** @param label display name (the version's, see versions.hh). */
    StreamingEngine(Machine &machine, ExecOptions options,
                    std::string label);

    std::string name() const override { return label_; }

  protected:
    StateVector execute(const Circuit &circuit,
                        RunResult &result) override;

  private:
    /**
     * Device-resident run of @p plan (base chunk size) with every
     * device holding its shard: concurrent per-device sweeps plus
     * batched peer exchange for cross-shard sweeps. Taken whenever the largest balanced shard
     * fits every device's memory, one device included.
     */
    StateVector executeSharded(const ExecutionPlan &plan,
                               RunResult &result);

    std::string label_;
    /**
     * Ratio-model codec: warp-32 lanes, one segment, sizes taken
     * payload-only over a batch-concatenated sample. The scaled-down
     * chunks here stand for the paper's multi-MB chunks, where GFC's
     * per-segment restarts and headers are noise; measuring tiny
     * chunks individually would bias the ratio toward 1 (see
     * DESIGN.md).
     */
    GfcCodec codec_{32, 1};
};

} // namespace qgpu

#endif // QGPU_ENGINE_STREAMING_HH
