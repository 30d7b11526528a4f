/**
 * @file
 * Layer replays of the traced run. A workload's traced pass lists each
 * call it made into the simulator as a ReplayOp; replayLayers then
 * re-runs the layers inside that call one public function at a time
 * (reorder, sweep schedule, state allocation, sweep kernels, gather /
 * scatter, exchange planning, flattening, measurement, codec,
 * checksums, bounded-storage residency, noise sampling) on the same
 * inputs, timing each one. Chunk geometry is n - 8 bits, the 256-chunk
 * split the engines start from (ExecOptions::targetChunks).
 *
 * The replays approximate what the engine does: they run each layer
 * alone, with a fixed chunk geometry, and without the engine's
 * per-gate scheduling bookkeeping. The gap between the replayed
 * seconds and the measured wall time of the same calls is reported as
 * the unattributed remainder, not hidden.
 */

#ifndef QGPU_BENCHSUITE_LAYERS_HH
#define QGPU_BENCHSUITE_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/execution.hh"
#include "noise/model.hh"
#include "qc/circuit.hh"
#include "suite.hh"

namespace qgpu
{
namespace benchsuite
{

/** Per-layer values by metric name (see BENCHMARK.json per_layer). */
using Layers = std::map<std::string, double>;

/** One call the traced pass made, described for replay. */
struct ReplayOp
{
    std::string label;
    const Circuit *circuit = nullptr;
    /** The engine's resolved options (version flags applied). */
    ExecOptions options;
    /** Simulated devices (exchange planning when > 1). */
    int devices = 1;
    /** Batched shots (> 0: the per-shot loop is replayed). */
    std::uint64_t shots = 0;
    const noise::NoiseModel *noise = nullptr;
    /** Measurement samples drawn from the final state. */
    std::uint64_t samples = 0;
    /** Measured wall seconds of the call in the traced pass. */
    double wall = 0.0;
};

/**
 * Replay every op's layers, adding seconds and counters into @p out
 * and one span per (op, layer) into @p spans under @p parent. Returns
 * the attributed seconds: the sum of the top-level layer times, which
 * excludes gather/scatter (part of the cross-chunk sweep time) and
 * the codec/checksum replays (part of the residency time on bounded
 * storage, and modeled rather than executed otherwise).
 */
double replayLayers(const std::vector<ReplayOp> &ops, Layers &out,
                    SpanLog &spans, int parent);

} // namespace benchsuite
} // namespace qgpu

#endif // QGPU_BENCHSUITE_LAYERS_HH
