#include "engine/baseline.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "fault/integrity.hh"
#include "sched/shard.hh"
#include "statevec/apply.hh"
#include "statevec/kernels.hh"

namespace qgpu
{

BaselineEngine::BaselineEngine(Machine &machine, ExecOptions options)
    : ExecutionEngine(machine, std::move(options))
{
}

StateVector
BaselineEngine::execute(const Circuit &circuit, RunResult &result)
{
    auto &stats = result.stats;
    Machine &m = machine();
    const int n = circuit.numQubits();
    const int num_devs = m.numDevices();
    const int chunk_bits = baseChunkBits(n);
    // QISKit-Aer's chunk loop: no pruning, no reordering, no fusion.
    const ExecutionPlan plan = buildPlan(
        circuit, false, options().involvement, chunk_bits, chunk_bits);

    // Transfer faults apply to the baseline's bus traffic too: the
    // initial load, the per-gate reactive exchanges, and the final
    // drain all retry under the shared bounded-retry policy.
    FaultInjector injector(FaultSpec::resolve(options().faultSpec),
                           options().faultSeed);
    ChunkedStateVector state(n, chunk_bits,
                             makeStorageConfig(options(), &injector));
    if (options().precision != Precision::f64)
        state.setPrecision(options().precision,
                           options().adaptiveThreshold);
    const Index num_chunks = state.numChunks();
    // Lane-aware chunk size: halved under Precision::f32, the wide
    // (f64) size under adaptive — the baseline prices its uniform
    // static allocation at the capacity-planning width.
    const std::uint64_t chunk_bytes = state.chunkBytes();

    // Static allocation (sched/shard.hh): device d owns a contiguous
    // range bounded by its memory; the remainder stays host-resident.
    // No device map is set for eviction: capacity-limited maps leave
    // overflow chunks on the host (kHost), so the balanced-share
    // heuristic would be meaningless here.
    std::vector<Index> caps(num_devs);
    for (int d = 0; d < num_devs; ++d)
        caps[d] = m.device(d).spec().memBytes / chunk_bytes;
    const ShardMap shard =
        ShardMap::capacityLimited(num_chunks, caps);
    const Index host_chunks = shard.hostChunks();
    stats.set("chunks.total", static_cast<double>(num_chunks));
    stats.set("chunks.on_device",
              static_cast<double>(num_chunks - host_chunks));
    stats.set("chunks.on_host", static_cast<double>(host_chunks));
    Charger charge(m, stats, result.trace, injector,
                   options().transferRetries);
    const auto owned_bytes = [&](int d) {
        return static_cast<double>(shard.ownedCount(d) * chunk_bytes);
    };

    // Initial load of the static device region.
    VTime prev_end = 0.0;
    for (int d = 0; d < num_devs; ++d)
        if (shard.ownedCount(d) > 0)
            prev_end = std::max(prev_end,
                                charge.h2d(d, 0.0, owned_bytes(d), -1));

    const double per_amp_bytes =
        2.0 * static_cast<double>(ampStoredBytes(
                  options().precision == Precision::f32)); // r + w
    const KernelTier tier =
        options().fastMath ? KernelTier::Fast : KernelTier::Exact;

    // Functional updates run sweep-at-a-time (one chunk-major pass
    // per sweep); the per-gate loop below only shapes the
    // virtual-time schedule, which models the per-gate baseline.
    const std::span<const Gate> gates{plan.ordered.gates()};
    std::vector<Index> members;
    for (std::size_t s = 0; s < plan.sweeps.size(); ++s) {
        applyPlanSweep(state, plan, s, tier);
        for (std::size_t gi = plan.sweeps[s].begin;
             gi < plan.sweeps[s].end; ++gi) {
            const Gate &gate = gates[gi];
            const auto gate_tag = static_cast<std::int64_t>(gi);
            const GatePlan gp(gate, n, chunk_bits);
            const Index span = gp.chunksPerGroup();
            const double group_flops =
                kernels::gateFlops(gate, n) /
                static_cast<double>(gp.numGroups());
            const double group_bytes =
                static_cast<double>(span * state.chunkSize()) *
                per_amp_bytes;

            // Partition groups by where their chunks live.
            double host_groups = 0.0;
            std::vector<double> dev_groups(num_devs, 0.0);
            // Mixed groups per target device: count, foreign bytes
            // from the host, and foreign bytes from each other device.
            std::vector<double> mixed_groups(num_devs, 0.0);
            std::vector<double> mixed_host_bytes(num_devs, 0.0);
            std::vector<double> mixed_peer_bytes(
                static_cast<std::size_t>(num_devs) * num_devs, 0.0);
            const auto peer_bytes = [&](int d, int src) -> double & {
                return mixed_peer_bytes[static_cast<std::size_t>(d) *
                                            num_devs +
                                        src];
            };

            for (Index g = 0; g < gp.numGroups(); ++g) {
                gp.membersInto(g, members);
                bool any_host = false;
                int first_dev = -1;
                bool multi_dev = false;
                for (Index c : members) {
                    const int loc = shard.device(c);
                    if (loc == ShardMap::kHost) {
                        any_host = true;
                    } else if (first_dev < 0) {
                        first_dev = loc;
                    } else if (loc != first_dev) {
                        multi_dev = true;
                    }
                }
                if (first_dev < 0) {
                    host_groups += 1.0;
                } else if (!any_host && !multi_dev) {
                    dev_groups[first_dev] += 1.0;
                } else {
                    // Reactive exchange: foreign chunks go to
                    // first_dev — host-resident ones over its host
                    // link, device-resident ones over the peer links.
                    mixed_groups[first_dev] += 1.0;
                    for (Index c : members) {
                        const int loc = shard.device(c);
                        if (loc == first_dev)
                            continue;
                        (loc == ShardMap::kHost
                             ? mixed_host_bytes[first_dev]
                             : peer_bytes(first_dev, loc)) +=
                            static_cast<double>(chunk_bytes);
                    }
                }
            }
            double gate_peer_bytes = 0.0;
            for (double b : mixed_peer_bytes)
                gate_peer_bytes += b;
            if (gate_peer_bytes > 0.0)
                stats.add(statkeys::exchangePhases, 1.0);
            // Schedule this gate. QISKit-Aer's chunk loop walks the
            // host-resident region with the CPU threads and only then
            // services the device region and its reactive exchanges,
            // so host and device work serialize within a gate (which
            // is why the paper's Fig. 2 breakdown sums to 100%).
            // Devices run concurrently with each other.
            VTime host_end = prev_end;
            if (host_groups > 0) {
                host_end = charge.host(prev_end, host_groups * group_flops,
                                       host_groups * group_bytes,
                                       options().hostThreads);
            }
            VTime gate_end = host_end;
            for (int d = 0; d < num_devs; ++d) {
                VTime t = host_end;
                if (dev_groups[d] > 0) {
                    t = charge.kernel(d, t, dev_groups[d] * group_flops,
                                      dev_groups[d] * group_bytes);
                }
                if (mixed_groups[d] > 0) {
                    // Reactive: copy in, compute, copy back, in order.
                    // Host-resident foreign chunks cross the host
                    // link; device-resident ones cross the peer links,
                    // each serialized on the sender's egress port.
                    VTime in_done = t;
                    if (mixed_host_bytes[d] > 0)
                        in_done = charge.h2d(d, t, mixed_host_bytes[d],
                                             gate_tag);
                    for (int src = 0; src < num_devs; ++src) {
                        const double pb = peer_bytes(d, src);
                        if (pb <= 0.0)
                            continue;
                        in_done = std::max(
                            in_done, charge.peer(src, d, t, pb, gate_tag));
                        stats.add(statkeys::exchangeChunks,
                                  pb / static_cast<double>(chunk_bytes));
                    }
                    const VTime k_done =
                        charge.kernel(d, in_done,
                                      mixed_groups[d] * group_flops,
                                      mixed_groups[d] * group_bytes);
                    VTime out_done = k_done;
                    if (mixed_host_bytes[d] > 0)
                        out_done = charge.d2h(
                            d, k_done, mixed_host_bytes[d], gate_tag);
                    for (int src = 0; src < num_devs; ++src) {
                        const double pb = peer_bytes(d, src);
                        if (pb <= 0.0)
                            continue;
                        // Return trip: the foreign chunks go home over
                        // this device's own egress port.
                        out_done = std::max(
                            out_done,
                            charge.peer(d, src, k_done, pb, gate_tag));
                        stats.add(statkeys::exchangeChunks,
                                  pb / static_cast<double>(chunk_bytes));
                    }
                    t = out_done;
                }
                gate_end = std::max(gate_end, t);
            }

            // Per-gate synchronization barrier.
            gate_end += syncLatency;
            stats.add(statkeys::sync, syncLatency);
            stats.add(statkeys::gatesApplied, 1.0);
            prev_end = gate_end;
        }
    }

    // Drain the device-resident region back to the host.
    for (int d = 0; d < num_devs; ++d)
        if (shard.ownedCount(d) > 0)
            charge.d2h(d, prev_end, owned_bytes(d),
                       static_cast<std::int64_t>(gates.size()));
    // Account the serialized gate chain: the host compute resource may
    // show idle gaps, but prev_end is the true makespan. Pin it with a
    // zero-length reservation (no work, so no span).
    m.host().compute().schedule(prev_end, 0.0);

    exportStorageStats(state, stats);
    return state.takeFlat();
}

} // namespace qgpu
