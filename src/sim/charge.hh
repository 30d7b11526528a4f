/**
 * @file
 * The one path that charges modeled work to a machine. Every engine
 * schedules kernels, codec passes, host updates, and host-link and
 * peer copies through a Charger, which puts the work on its resource,
 * traces it over [end - duration, end] (where the resource actually
 * ran it, so spans on one serial resource never overlap and sum to
 * its busy time), and adds the counters below. Copies run under
 * guardedTransfer's bounded retry.
 */

#ifndef QGPU_SIM_CHARGE_HH
#define QGPU_SIM_CHARGE_HH

#include <cstdint>

#include "common/stats.hh"
#include "common/trace.hh"
#include "fault/injector.hh"
#include "sim/machine.hh"

namespace qgpu
{

/** Counters the Charger adds (the rest of statkeys: engine/execution.hh). */
namespace statkeys
{
inline constexpr const char *bytesH2d = "bytes.h2d";
inline constexpr const char *bytesD2h = "bytes.d2h";
inline constexpr const char *flopsDevice = "flops.device";
inline constexpr const char *flopsHost = "flops.host";
inline constexpr const char *deviceMemBytes = "bytes.device_mem";
inline constexpr const char *compressTime = "time.compress";
inline constexpr const char *decompressTime = "time.decompress";
/** Bytes moved over peer links (gather + scatter). */
inline constexpr const char *exchangeBytes = "exchange.bytes";
} // namespace statkeys

/** Charges one run's modeled work; every method returns its end time. */
class Charger
{
  public:
    Charger(Machine &machine, StatSet &stats, Trace &trace,
            FaultInjector &injector, int retries);

    /** Kernel on device @p dev: flops.device, bytes.device_mem. */
    VTime kernel(int dev, VTime at, double flops, double bytes);

    /** GFC pass over @p bytes raw bytes on @p dev's compute engine:
     *  time.compress, or time.decompress unless @p compress. */
    VTime codec(int dev, VTime at, double bytes, bool compress);

    /** Host update on @p threads threads: flops.host. */
    VTime host(VTime at, double flops, double bytes, int threads);

    /** Host-link copies; bytes.h2d / bytes.d2h count every attempt. */
    VTime h2d(int dev, VTime at, double bytes, std::int64_t gate);
    VTime d2h(int dev, VTime at, double bytes, std::int64_t gate);

    /** One @p src -> @p dst message on @p src's egress port;
     *  exchange.bytes counts it once. */
    VTime peer(int src, int dst, VTime at, double bytes,
               std::int64_t gate);

  private:
    VTime run(TimedResource &resource, const std::string &name,
              VTime at, VTime duration, const char *phase,
              const char *label);
    VTime transfer(FaultPoint point, TimedResource &engine,
                   const LinkModel &link, const char *phase,
                   const char *label, VTime at, double bytes,
                   std::int64_t gate, const char *attempt_key);

    Machine &machine_;
    StatSet &stats_;
    Trace &trace_;
    FaultInjector &injector_;
    int retries_;
};

} // namespace qgpu

#endif // QGPU_SIM_CHARGE_HH
