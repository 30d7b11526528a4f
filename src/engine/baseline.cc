#include "engine/baseline.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "fault/integrity.hh"
#include "sched/shard.hh"
#include "sched/sweep.hh"
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
    auto &trace = result.trace;
    Machine &m = machine();
    const int n = circuit.numQubits();
    const int chunk_bits = baseChunkBits(n);

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
    std::vector<Index> caps(m.numDevices());
    for (int d = 0; d < m.numDevices(); ++d)
        caps[d] = m.device(d).spec().memBytes / chunk_bytes;
    const ShardMap shard =
        ShardMap::capacityLimited(num_chunks, caps);
    const Index host_chunks = shard.hostChunks();
    stats.set("chunks.total", static_cast<double>(num_chunks));
    stats.set("chunks.on_device",
              static_cast<double>(num_chunks - host_chunks));
    stats.set("chunks.on_host", static_cast<double>(host_chunks));
    const int retries = options().transferRetries;

    // Initial load of the static device region.
    VTime prev_end = 0.0;
    for (int d = 0; d < m.numDevices(); ++d) {
        const Index owned = shard.ownedCount(d);
        if (owned == 0)
            continue;
        auto &dev = m.device(d);
        const VTime done = guardedTransfer(
            &injector, FaultPoint::H2D, retries, -1, stats, 0.0,
            [&](VTime s) {
                const VTime end = dev.h2dEngine().schedule(
                    s, m.contendedHostLink(dev.spec().h2d)
                           .transferTime(owned * chunk_bytes));
                stats.add(statkeys::bytesH2d,
                          static_cast<double>(owned * chunk_bytes));
                return end;
            });
        prev_end = std::max(prev_end, done);
    }

    const double per_amp_bytes =
        2.0 * static_cast<double>(ampStoredBytes(
                  options().precision == Precision::f32)); // r + w
    const KernelTier tier =
        options().fastMath ? KernelTier::Fast : KernelTier::Exact;

    // Functional updates run sweep-at-a-time (one chunk-major pass
    // per sweep, sched/sweep.hh); the per-gate loop below only shapes
    // the virtual-time schedule, which models the per-gate baseline.
    const std::span<const Gate> gates{circuit.gates()};
    std::size_t sweep_end = 0;

    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        if (gi == sweep_end) {
            const Sweep sw = nextSweep(gates, gi, chunk_bits);
            applySweepChunked(state,
                              gates.subspan(sw.begin, sw.size()),
                              sw.globalBits, {}, tier);
            sweep_end = sw.end;
            state.refreshPrecision();
        }
        const Gate &gate = gates[gi];
        const GatePlan plan(gate, n, chunk_bits);
        const Index span = plan.chunksPerGroup();
        const double group_flops =
            kernels::gateFlops(gate, n) /
            static_cast<double>(plan.numGroups());
        const double group_bytes =
            static_cast<double>(span * state.chunkSize()) *
            per_amp_bytes;

        // Partition groups by where their chunks live.
        double host_groups = 0.0;
        std::vector<double> dev_groups(m.numDevices(), 0.0);
        // Mixed groups per target device: count, foreign bytes from
        // the host, and foreign bytes from each other device.
        std::vector<double> mixed_groups(m.numDevices(), 0.0);
        std::vector<double> mixed_host_bytes(m.numDevices(), 0.0);
        std::vector<double> mixed_peer_bytes(
            static_cast<std::size_t>(m.numDevices()) *
                m.numDevices(),
            0.0);

        std::vector<Index> members;
        for (Index g = 0; g < plan.numGroups(); ++g) {
            plan.membersInto(g, members);
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
                // Reactive exchange: foreign chunks go to first_dev —
                // host-resident ones over its host link, device-
                // resident ones over the peer links.
                mixed_groups[first_dev] += 1.0;
                for (Index c : members) {
                    const int loc = shard.device(c);
                    if (loc == first_dev)
                        continue;
                    if (loc == ShardMap::kHost) {
                        mixed_host_bytes[first_dev] +=
                            static_cast<double>(chunk_bytes);
                    } else {
                        mixed_peer_bytes
                            [static_cast<std::size_t>(first_dev) *
                                 m.numDevices() +
                             loc] += static_cast<double>(chunk_bytes);
                    }
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
        // services the device region and its reactive exchanges, so
        // host and device work serialize within a gate (which is why
        // the paper's Fig. 2 breakdown sums to 100%). Devices run
        // concurrently with each other.
        VTime host_end = prev_end;
        if (host_groups > 0) {
            const double flops = host_groups * group_flops;
            const double bytes = host_groups * group_bytes;
            const VTime dur = m.host().updateTime(
                flops, bytes, options().hostThreads);
            host_end = m.host().compute().schedule(prev_end, dur);
            trace.record(phases::hostCompute, "update",
                         "host.compute", host_end - dur, host_end);
            stats.add(statkeys::flopsHost, flops);
        }
        VTime gate_end = host_end;
        for (int d = 0; d < m.numDevices(); ++d) {
            auto &dev = m.device(d);
            VTime t = host_end;
            if (dev_groups[d] > 0) {
                const double flops = dev_groups[d] * group_flops;
                const double bytes = dev_groups[d] * group_bytes;
                t = dev.compute().schedule(
                    t, dev.kernelTime(flops, bytes));
                trace.record(phases::compute, "kernel",
                             dev.spec().name + ".compute", prev_end,
                             t);
                stats.add(statkeys::flopsDevice, flops);
                stats.add(statkeys::deviceMemBytes, bytes);
            }
            if (mixed_groups[d] > 0) {
                // Reactive: copy in, compute, copy back, in order.
                // Host-resident foreign chunks cross the host link;
                // device-resident ones cross the peer links, each
                // serialized on the sender's egress port.
                VTime in_done = t;
                if (mixed_host_bytes[d] > 0) {
                    in_done = guardedTransfer(
                        &injector, FaultPoint::H2D, retries,
                        static_cast<std::int64_t>(gi), stats, t,
                        [&](VTime s) {
                            const VTime end =
                                dev.h2dEngine().schedule(
                                    s,
                                    m.contendedHostLink(
                                         dev.spec().h2d)
                                        .transferTime(
                                            static_cast<
                                                std::uint64_t>(
                                                mixed_host_bytes
                                                    [d])));
                            stats.add(statkeys::bytesH2d,
                                      mixed_host_bytes[d]);
                            trace.record(phases::h2d, "xfer",
                                         dev.spec().name + ".h2d",
                                         s, end);
                            return end;
                        });
                }
                for (int src = 0; src < m.numDevices(); ++src) {
                    const double pb = mixed_peer_bytes
                        [static_cast<std::size_t>(d) *
                             m.numDevices() +
                         src];
                    if (pb <= 0.0)
                        continue;
                    auto &src_dev = m.device(src);
                    const VTime done = guardedTransfer(
                        &injector, FaultPoint::Peer, retries,
                        static_cast<std::int64_t>(gi), stats, t,
                        [&](VTime s) {
                            const VTime end =
                                src_dev.peerEngine().schedule(
                                    s, m.peerLink(src, d)
                                           .transferTime(
                                               static_cast<
                                                   std::uint64_t>(
                                                   pb)));
                            trace.record(phases::peer, "xchg",
                                         src_dev.spec().name +
                                             ".peer",
                                         s, end);
                            return end;
                        });
                    stats.add(statkeys::exchangeBytes, pb);
                    stats.add(statkeys::exchangeChunks,
                              pb / static_cast<double>(chunk_bytes));
                    in_done = std::max(in_done, done);
                }
                const double flops = mixed_groups[d] * group_flops;
                const double bytes = mixed_groups[d] * group_bytes;
                const VTime k_done = dev.compute().schedule(
                    in_done, dev.kernelTime(flops, bytes));
                stats.add(statkeys::flopsDevice, flops);
                stats.add(statkeys::deviceMemBytes, bytes);
                VTime out_done = k_done;
                if (mixed_host_bytes[d] > 0) {
                    out_done = guardedTransfer(
                        &injector, FaultPoint::D2H, retries,
                        static_cast<std::int64_t>(gi), stats, k_done,
                        [&](VTime s) {
                            const VTime end =
                                dev.d2hEngine().schedule(
                                    s,
                                    m.contendedHostLink(
                                         dev.spec().d2h)
                                        .transferTime(
                                            static_cast<
                                                std::uint64_t>(
                                                mixed_host_bytes
                                                    [d])));
                            stats.add(statkeys::bytesD2h,
                                      mixed_host_bytes[d]);
                            trace.record(phases::d2h, "xfer",
                                         dev.spec().name + ".d2h",
                                         s, end);
                            return end;
                        });
                }
                for (int src = 0; src < m.numDevices(); ++src) {
                    const double pb = mixed_peer_bytes
                        [static_cast<std::size_t>(d) *
                             m.numDevices() +
                         src];
                    if (pb <= 0.0)
                        continue;
                    // Return trip: the foreign chunks go home over
                    // this device's own egress port.
                    const VTime done = guardedTransfer(
                        &injector, FaultPoint::Peer, retries,
                        static_cast<std::int64_t>(gi), stats,
                        k_done, [&](VTime s) {
                            const VTime end =
                                dev.peerEngine().schedule(
                                    s, m.peerLink(d, src)
                                           .transferTime(
                                               static_cast<
                                                   std::uint64_t>(
                                                   pb)));
                            trace.record(phases::peer, "xchg",
                                         dev.spec().name + ".peer",
                                         s, end);
                            return end;
                        });
                    stats.add(statkeys::exchangeBytes, pb);
                    stats.add(statkeys::exchangeChunks,
                              pb / static_cast<double>(chunk_bytes));
                    out_done = std::max(out_done, done);
                }
                t = out_done;
            }
            gate_end = std::max(gate_end, t);
        }

        // Per-gate synchronization barrier.
        gate_end += options().syncLatency;
        stats.add(statkeys::sync, options().syncLatency);
        stats.add(statkeys::gatesApplied, 1.0);
        prev_end = gate_end;
    }

    // Drain the device-resident region back to the host.
    for (int d = 0; d < m.numDevices(); ++d) {
        const Index owned = shard.ownedCount(d);
        if (owned == 0)
            continue;
        auto &dev = m.device(d);
        guardedTransfer(
            &injector, FaultPoint::D2H, retries,
            static_cast<std::int64_t>(gates.size()), stats, prev_end,
            [&](VTime s) {
                const VTime end = dev.d2hEngine().schedule(
                    s, m.contendedHostLink(dev.spec().d2h)
                           .transferTime(owned * chunk_bytes));
                stats.add(statkeys::bytesD2h,
                          static_cast<double>(owned * chunk_bytes));
                return end;
            });
    }
    // Account the serialized gate chain: the host compute resource may
    // show idle gaps, but prev_end is the true makespan. Pin it by
    // scheduling a zero-length marker.
    m.host().compute().schedule(prev_end, 0.0);

    exportStorageStats(state, stats);
    return state.takeFlat();
}

} // namespace qgpu
