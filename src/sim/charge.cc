#include "sim/charge.hh"

#include "fault/integrity.hh"

namespace qgpu
{

Charger::Charger(Machine &machine, StatSet &stats, Trace &trace,
                 FaultInjector &injector, int retries)
    : machine_(machine), stats_(stats), trace_(trace),
      injector_(injector), retries_(retries)
{
}

VTime
Charger::run(TimedResource &resource, const std::string &name,
             VTime at, VTime duration, const char *phase,
             const char *label)
{
    const VTime end = resource.schedule(at, duration);
    if (trace_.enabled())
        trace_.record(phase, label, name, end - duration, end);
    return end;
}

VTime
Charger::transfer(FaultPoint point, TimedResource &engine,
                  const LinkModel &link, const char *phase,
                  const char *label, VTime at, double bytes,
                  std::int64_t gate, const char *attempt_key)
{
    const VTime duration =
        link.transferTime(static_cast<std::uint64_t>(bytes));
    return guardedTransfer(
        &injector_, point, retries_, gate, stats_, at, [&](VTime start) {
            const VTime end =
                run(engine, engine.name(), start, duration, phase, label);
            if (attempt_key != nullptr)
                stats_.add(attempt_key, bytes);
            return end;
        });
}

VTime
Charger::kernel(int dev, VTime at, double flops, double bytes)
{
    DeviceModel &d = machine_.device(dev);
    const VTime end = run(d.compute(), d.compute().name(), at,
                          d.kernelTime(flops, bytes), phases::compute,
                          "kernel");
    stats_.add(statkeys::flopsDevice, flops);
    stats_.add(statkeys::deviceMemBytes, bytes);
    return end;
}

VTime
Charger::codec(int dev, VTime at, double bytes, bool compress)
{
    DeviceModel &d = machine_.device(dev);
    const VTime duration = d.codecTime(static_cast<std::uint64_t>(bytes));
    const VTime end = run(d.compute(), d.compute().name(), at, duration,
                          phases::compress, compress ? "cmp" : "dec");
    stats_.add(compress ? statkeys::compressTime
                        : statkeys::decompressTime,
               duration);
    return end;
}

VTime
Charger::host(VTime at, double flops, double bytes, int threads)
{
    // Host spans keep the generic resource name the CPU engines use.
    static const std::string kHost = "host.compute";
    HostModel &h = machine_.host();
    const VTime end = run(h.compute(), kHost, at,
                          h.updateTime(flops, bytes, threads),
                          phases::hostCompute, "update");
    stats_.add(statkeys::flopsHost, flops);
    return end;
}

VTime
Charger::h2d(int dev, VTime at, double bytes, std::int64_t gate)
{
    DeviceModel &d = machine_.device(dev);
    return transfer(FaultPoint::H2D, d.h2dEngine(),
                    machine_.contendedHostLink(d.spec().h2d), phases::h2d,
                    "xfer", at, bytes, gate, statkeys::bytesH2d);
}

VTime
Charger::d2h(int dev, VTime at, double bytes, std::int64_t gate)
{
    DeviceModel &d = machine_.device(dev);
    return transfer(FaultPoint::D2H, d.d2hEngine(),
                    machine_.contendedHostLink(d.spec().d2h), phases::d2h,
                    "xfer", at, bytes, gate, statkeys::bytesD2h);
}

VTime
Charger::peer(int src, int dst, VTime at, double bytes,
              std::int64_t gate)
{
    const VTime end = transfer(
        FaultPoint::Peer, machine_.device(src).peerEngine(),
        machine_.peerLink(src, dst), phases::peer, "xchg", at, bytes,
        gate, nullptr);
    stats_.add(statkeys::exchangeBytes, bytes);
    return end;
}

} // namespace qgpu
