/**
 * @file
 * Tests for the virtual-time device model: resources, links, kernel
 * roofs, machine presets, and timeline rendering.
 */

#include <gtest/gtest.h>

#include "common/trace.hh"
#include "sim/machine.hh"

namespace qgpu
{
namespace
{

TEST(TimedResource, SequentialOccupancy)
{
    TimedResource r("r");
    EXPECT_DOUBLE_EQ(r.schedule(0.0, 2.0), 2.0);
    // Earliest 1.0 but resource busy until 2.0.
    EXPECT_DOUBLE_EQ(r.schedule(1.0, 3.0), 5.0);
    // Gap: earliest 10 after free at 5.
    EXPECT_DOUBLE_EQ(r.schedule(10.0, 1.0), 11.0);
    EXPECT_DOUBLE_EQ(r.busyTime(), 6.0);
}

TEST(TimedResource, ResetClears)
{
    TimedResource r("r");
    r.schedule(0.0, 5.0);
    r.reset();
    EXPECT_DOUBLE_EQ(r.freeAt(), 0.0);
    EXPECT_DOUBLE_EQ(r.busyTime(), 0.0);
}

TEST(LinkModel, TransferTime)
{
    LinkModel link{10e9, 1e-5};
    EXPECT_DOUBLE_EQ(link.transferTime(10'000'000'000ull),
                     1.0 + 1e-5);
    // Latency dominates tiny transfers.
    EXPECT_GT(link.transferTime(1), 1e-5);
}

TEST(DeviceModel, KernelRoofline)
{
    DeviceSpec spec;
    spec.flops = 1e12;
    spec.memBandwidth = 1e11;
    spec.kernelLatency = 0.0;
    DeviceModel dev(spec);
    // Compute-bound: 1e12 flops over 1 byte.
    EXPECT_NEAR(dev.kernelTime(1e12, 1.0), 1.0, 1e-12);
    // Memory-bound: 1 flop over 1e11 bytes.
    EXPECT_NEAR(dev.kernelTime(1.0, 1e11), 1.0, 1e-12);
}

TEST(DeviceModel, CodecTime)
{
    DeviceSpec spec;
    spec.codecThroughput = 50e9;
    spec.kernelLatency = 0.0;
    DeviceModel dev(spec);
    EXPECT_NEAR(dev.codecTime(50'000'000'000ull), 1.0, 1e-12);
}

TEST(Machine, PresetsSane)
{
    EXPECT_GT(machines::p100().flops, 1e12);
    EXPECT_GT(machines::v100Pcie().flops, machines::p100().flops);
    EXPECT_GT(machines::a100().memBandwidth,
              machines::v100Pcie().memBandwidth);
    EXPECT_LT(machines::p4().flops, machines::p100().flops);
    EXPECT_GT(machines::v100Nvlink().h2d.bandwidth,
              machines::v100Pcie().h2d.bandwidth);
}

TEST(Machine, ScaledDeviceFraction)
{
    const int n = 20;
    Machine m = machines::makeScaled(n, machines::p100(), 1.0 / 16.0);
    EXPECT_EQ(m.numDevices(), 1);
    EXPECT_EQ(m.device(0).spec().memBytes, stateBytes(n) / 16);
}

TEST(Machine, MultiGpuSplitsCapacity)
{
    Machine m =
        machines::makeScaled(20, machines::p4(), 1.0 / 8.0, 4);
    EXPECT_EQ(m.numDevices(), 4);
    EXPECT_EQ(m.totalDeviceMem(), stateBytes(20) / 8);
    // Device names are disambiguated.
    EXPECT_NE(m.device(0).spec().name, m.device(1).spec().name);
}

TEST(Machine, ResetClearsAllEngines)
{
    Machine m = machines::makeScaled(16, machines::p100());
    m.device(0).compute().schedule(0.0, 1.0);
    m.host().compute().schedule(0.0, 2.0);
    m.reset();
    EXPECT_DOUBLE_EQ(m.device(0).compute().freeAt(), 0.0);
    EXPECT_DOUBLE_EQ(m.host().compute().freeAt(), 0.0);
}

TEST(HostModel, ThreadScaling)
{
    HostModel host(machines::xeonSilverHost());
    const double flops = 1e12;
    // More threads -> faster, but sublinearly.
    const VTime t1 = host.updateTime(flops, 0.0, 1);
    const VTime t10 = host.updateTime(flops, 0.0, 10);
    EXPECT_LT(t10, t1);
    EXPECT_GT(t10, t1 / 10.0);
}

TEST(HostModel, MemoryRoof)
{
    HostSpec spec;
    spec.memBandwidth = 1e9;
    spec.flopsPerCore = 1e15; // compute free
    HostModel host(spec);
    EXPECT_NEAR(host.updateTime(1.0, 1e9), 1.0, 1e-12);
}

TEST(Timeline, RenderShowsResources)
{
    Trace t;
    t.enable();
    t.record("compute", "kernel", "gpu.compute", 0.0, 1.0);
    t.record("h2d", "xfer", "gpu.h2d", 0.5, 2.0);
    t.record("prune", "decide", "host.prune", 1.0, 1.0);
    const std::string out = renderTimeline(t, 40);
    EXPECT_NE(out.find("gpu.compute"), std::string::npos);
    EXPECT_NE(out.find("gpu.h2d"), std::string::npos);
    EXPECT_NE(out.find("k"), std::string::npos);
    // Zero-length markers carry no work and get no row.
    EXPECT_EQ(out.find("host.prune"), std::string::npos);
    EXPECT_NE(out.find("total: 2 s"), std::string::npos);
}

} // namespace
} // namespace qgpu
