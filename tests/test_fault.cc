/**
 * @file
 * Unit tests for the fault-injection and chunk-integrity subsystem
 * (src/fault/): checksums, fault-spec parsing, the deterministic
 * injector, structured SimErrors, the guarded-transfer retry policy,
 * and small end-to-end smoke runs through the streaming engines. The
 * long randomized sweeps live in test_fault_fuzz.cc (tier2).
 */

#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "fault/checksum.hh"
#include "fault/injector.hh"
#include "fault/integrity.hh"
#include "fault/sim_error.hh"
#include "harness/experiment.hh"

namespace qgpu
{
namespace
{

// ---------------------------------------------------------------- checksum

TEST(Checksum, DeterministicAndSensitiveToEveryByte)
{
    std::vector<std::uint8_t> buf(67);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i * 31 + 7);
    const std::uint64_t base = checksumBytes(buf.data(), buf.size());
    EXPECT_EQ(base, checksumBytes(buf.data(), buf.size()));
    // Any single-byte flip -- word-aligned or in the tail -- must
    // change the digest; that is the whole integrity contract.
    for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] ^= 0x40;
        EXPECT_NE(base, checksumBytes(buf.data(), buf.size()))
            << "flip at byte " << i << " went undetected";
        buf[i] ^= 0x40;
    }
    EXPECT_EQ(base, checksumBytes(buf.data(), buf.size()));
}

TEST(Checksum, LengthIsMixedIn)
{
    // A buffer of zeros must not collide with a shorter prefix of
    // itself (plain FNV over zero bytes is length-blind without the
    // finalizer).
    const std::vector<std::uint8_t> zeros(64, 0);
    EXPECT_NE(checksumBytes(zeros.data(), 64),
              checksumBytes(zeros.data(), 32));
    EXPECT_NE(checksumBytes(zeros.data(), 8),
              checksumBytes(zeros.data(), 9));
}

TEST(Checksum, AmpSpanMatchesRawBytes)
{
    std::vector<Amp> amps = {{0.25, -1.5}, {3.0, 0.0}, {-0.0, 2.0}};
    EXPECT_EQ(checksumAmps(amps),
              checksumBytes(amps.data(), amps.size() * sizeof(Amp)));
}

TEST(Checksum, EmptyBufferIsStable)
{
    EXPECT_EQ(checksumBytes(nullptr, 0), checksumBytes(nullptr, 0));
}

// --------------------------------------------------------------- FaultSpec

TEST(FaultSpec, ParsesPointsAndProbabilities)
{
    const FaultSpec s = FaultSpec::parse("d2h:0.01,codec:0.005");
    EXPECT_TRUE(s.enabled());
    EXPECT_FALSE(s.enabled(FaultPoint::H2D));
    EXPECT_TRUE(s.enabled(FaultPoint::D2H));
    EXPECT_TRUE(s.enabled(FaultPoint::Codec));
    EXPECT_FALSE(s.enabled(FaultPoint::Alloc));
    EXPECT_DOUBLE_EQ(
        s.probability[static_cast<int>(FaultPoint::D2H)], 0.01);
    EXPECT_DOUBLE_EQ(
        s.probability[static_cast<int>(FaultPoint::Codec)], 0.005);
}

TEST(FaultSpec, EmptyAndNoneDisable)
{
    EXPECT_FALSE(FaultSpec::parse("").enabled());
    EXPECT_FALSE(FaultSpec::resolve("").enabled());
    EXPECT_FALSE(FaultSpec::resolve("none").enabled());
}

TEST(FaultSpec, ResolveEnvReadsTheVariable)
{
    ::setenv("QGPU_FAULT_SPEC", "alloc:0.25", 1);
    const FaultSpec s = FaultSpec::resolve("env");
    ::unsetenv("QGPU_FAULT_SPEC");
    EXPECT_TRUE(s.enabled(FaultPoint::Alloc));
    EXPECT_DOUBLE_EQ(
        s.probability[static_cast<int>(FaultPoint::Alloc)], 0.25);
    EXPECT_FALSE(FaultSpec::resolve("env").enabled());
}

TEST(FaultSpec, ResolveInlineSpecBypassesEnv)
{
    ::setenv("QGPU_FAULT_SPEC", "alloc:1.0", 1);
    const FaultSpec s = FaultSpec::resolve("h2d:0.5");
    ::unsetenv("QGPU_FAULT_SPEC");
    EXPECT_TRUE(s.enabled(FaultPoint::H2D));
    EXPECT_FALSE(s.enabled(FaultPoint::Alloc));
}

TEST(FaultSpecDeath, MalformedSpecsAreFatal)
{
    EXPECT_DEATH((void)FaultSpec::parse("gpu:0.5"), "fault");
    EXPECT_DEATH((void)FaultSpec::parse("d2h:elephants"), "fault");
    EXPECT_DEATH((void)FaultSpec::parse("d2h:1.5"), "fault");
    EXPECT_DEATH((void)FaultSpec::parse("d2h"), "fault");
}

// ------------------------------------------------------------ FaultInjector

TEST(FaultInjector, DeterministicForSeed)
{
    const FaultSpec spec = FaultSpec::parse("d2h:0.3,h2d:0.3");
    FaultInjector a(spec, 99), b(spec, 99);
    for (int i = 0; i < 200; ++i) {
        const FaultPoint p =
            (i % 2) ? FaultPoint::D2H : FaultPoint::H2D;
        EXPECT_EQ(a.fire(p), b.fire(p)) << "draw " << i;
    }
    EXPECT_EQ(a.injectedTotal(), b.injectedTotal());
    EXPECT_GT(a.injectedTotal(), 0u);
}

TEST(FaultInjector, ExtremeProbabilities)
{
    FaultInjector never(FaultSpec::parse("d2h:0.0"), 1);
    FaultInjector always(FaultSpec::parse("d2h:1.0"), 1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(never.fire(FaultPoint::D2H));
        EXPECT_TRUE(always.fire(FaultPoint::D2H));
    }
    EXPECT_EQ(never.injected(FaultPoint::D2H), 0u);
    EXPECT_EQ(always.injected(FaultPoint::D2H), 100u);
}

TEST(FaultInjector, CorruptFlipsExactlyOneByte)
{
    FaultInjector inj(FaultSpec::parse("codec:1.0"), 7);
    std::vector<std::uint8_t> buf(256, 0xAB);
    const std::vector<std::uint8_t> orig = buf;
    inj.corrupt(buf);
    int changed = 0;
    for (std::size_t i = 0; i < buf.size(); ++i)
        if (buf[i] != orig[i])
            ++changed;
    EXPECT_EQ(changed, 1);

    std::vector<std::uint8_t> empty;
    inj.corrupt(empty); // must not crash
    EXPECT_TRUE(empty.empty());
}

// ---------------------------------------------------------------- SimError

TEST(SimError, ToStringCarriesContext)
{
    const SimError e{SimErrorCode::ChecksumMismatch, "h2d",
                     "raw copy diverged", 12, 34, 2};
    const std::string s = e.toString();
    EXPECT_NE(s.find("checksum_mismatch"), std::string::npos);
    EXPECT_NE(s.find("h2d"), std::string::npos);
    EXPECT_NE(s.find("12"), std::string::npos);
    EXPECT_NE(s.find("34"), std::string::npos);
    EXPECT_NE(s.find("raw copy diverged"), std::string::npos);
}

TEST(SimError, ExceptionWhatMatchesToString)
{
    const SimError e{SimErrorCode::TransferFailed, "d2h",
                     "retry budget exhausted", -1, 5, 4};
    const SimException ex(e);
    EXPECT_EQ(std::string(ex.what()), e.toString());
    EXPECT_EQ(ex.error().code, SimErrorCode::TransferFailed);
    EXPECT_EQ(ex.error().gate, 5);
}

// --------------------------------------------------------- guardedTransfer

TEST(GuardedTransfer, NoInjectorMeansOneAttempt)
{
    StatSet stats;
    int calls = 0;
    const VTime done = guardedTransfer(
        nullptr, FaultPoint::D2H, 3, 0, stats, 1.0, [&](VTime s) {
            ++calls;
            return s + 0.5;
        });
    EXPECT_EQ(calls, 1);
    EXPECT_DOUBLE_EQ(done, 1.5);
    EXPECT_EQ(stats.get(intkeys::faultKey(FaultPoint::D2H)), 0.0);
}

TEST(GuardedTransfer, RetriesBurnVirtualTimeThenSucceed)
{
    // Fault on the first two draws, then clean: expect 3 attempts
    // chained end-to-start. Injector draws are probabilistic, so
    // search for a seed whose first draws at p=0.5 are fail, fail,
    // pass.
    StatSet stats;
    for (std::uint64_t seed = 0; seed < 4096; ++seed) {
        FaultInjector probe(FaultSpec::parse("d2h:0.5"), seed);
        if (probe.fire(FaultPoint::D2H) &&
            probe.fire(FaultPoint::D2H) &&
            !probe.fire(FaultPoint::D2H)) {
            FaultInjector inj(FaultSpec::parse("d2h:0.5"), seed);
            int calls = 0;
            const VTime done = guardedTransfer(
                &inj, FaultPoint::D2H, 3, 7, stats, 0.0,
                [&](VTime s) {
                    ++calls;
                    return s + 1.0;
                });
            EXPECT_EQ(calls, 3);
            EXPECT_DOUBLE_EQ(done, 3.0);
            EXPECT_EQ(
                stats.get(intkeys::faultKey(FaultPoint::D2H)), 2.0);
            EXPECT_EQ(
                stats.get(intkeys::retryKey(FaultPoint::D2H)), 2.0);
            return;
        }
    }
    FAIL() << "no seed with a fail-fail-pass prefix in 4096 tries";
}

TEST(GuardedTransfer, ExhaustionThrowsStructuredError)
{
    FaultInjector inj(FaultSpec::parse("h2d:1.0"), 3);
    StatSet stats;
    try {
        guardedTransfer(&inj, FaultPoint::H2D, 2, 9, stats, 0.0,
                        [&](VTime s) { return s + 1.0; });
        FAIL() << "expected SimException";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().code, SimErrorCode::TransferFailed);
        EXPECT_EQ(e.error().point, "h2d");
        EXPECT_EQ(e.error().gate, 9);
        EXPECT_EQ(e.error().attempts, 3); // 1 initial + 2 retries
    }
}

// ------------------------------------------------------ ChunkIntegrity

TEST(ChunkIntegrity, RotatingSampleWindowCoversEveryChunk)
{
    // Pure verify mode with a window of 2 over 8 chunks: each epoch
    // tracks exactly 2 chunks, and four consecutive epochs cover all
    // 8 (disjoint windows), so nothing escapes verification for long.
    ChunkIntegrity guard(true, nullptr, 2);
    guard.reset(8);
    FaultInjector inj(FaultSpec::parse(""), 1);
    StatSet stats;
    const std::vector<Amp> chunk(4, Amp{0.5, -0.5});
    for (int epoch = 0; epoch < 4; ++epoch) {
        const double before = stats.get(intkeys::checksumComputed);
        for (Index c = 0; c < 8; ++c)
            guard.onShip(chunk, c, 0, inj, stats);
        EXPECT_EQ(stats.get(intkeys::checksumComputed) - before, 2.0)
            << "epoch " << epoch;
        for (Index c = 0; c < 8; ++c)
            guard.onReceive(chunk, c, 0, inj, stats);
        guard.beginEpoch();
    }
    // 8 distinct chunks computed in 4 epochs of 2 proves the windows
    // rotated without overlap; every receive of a tracked chunk
    // verified cleanly.
    EXPECT_EQ(stats.get(intkeys::checksumComputed), 8.0);
    EXPECT_EQ(stats.get(intkeys::checksumVerified), 8.0);
    EXPECT_EQ(stats.get(intkeys::checksumMismatch), 0.0);
}

TEST(ChunkIntegrity, SampledWindowStillDetectsCorruption)
{
    ChunkIntegrity guard(true, nullptr, 2);
    guard.reset(8);
    FaultInjector inj(FaultSpec::parse(""), 1);
    StatSet stats;
    const std::vector<Amp> good(4, Amp{0.5, -0.5});
    const std::vector<Amp> bad(4, Amp{0.25, 0.0});
    for (Index c = 0; c < 8; ++c)
        guard.onShip(good, c, 0, inj, stats);
    // Every tracked chunk "arrives" damaged: each one in the window
    // must raise the unrecoverable raw-mismatch error.
    int detected = 0;
    for (Index c = 0; c < 8; ++c) {
        try {
            guard.onReceive(bad, c, 0, inj, stats);
        } catch (const SimException &e) {
            EXPECT_EQ(e.error().code, SimErrorCode::ChecksumMismatch);
            ++detected;
        }
    }
    EXPECT_EQ(detected, 2);
}

TEST(ChunkIntegrity, ZeroLimitTracksEveryChunk)
{
    ChunkIntegrity guard(true, nullptr, 0);
    guard.reset(8);
    FaultInjector inj(FaultSpec::parse(""), 1);
    StatSet stats;
    const std::vector<Amp> chunk(4, Amp{1.0, 0.0});
    for (Index c = 0; c < 8; ++c)
        guard.onShip(chunk, c, 0, inj, stats);
    EXPECT_EQ(stats.get(intkeys::checksumComputed), 8.0);
}

// ----------------------------------------------------- end-to-end smoke

ExecOptions
faultlessOptions()
{
    ExecOptions o;
    o.targetChunks = 32;
    o.faultSpec = "none"; // isolate from any ambient QGPU_FAULT_SPEC
    return o;
}

TEST(FaultSmoke, CleanVerifyRunRecordsAndMatchesReference)
{
    const Circuit circuit = circuits::makeBenchmark("qft", 8);
    ExecOptions o = faultlessOptions();
    o.verifyChunks = true;
    o.verifySampleChunks = 0; // full tracking: every chunk, every epoch
    Machine m = harness::benchMachine(8);
    const RunResult r = harness::runOn("qgpu", m, circuit, o);
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r.stats.get(intkeys::checksumComputed), 0.0);
    EXPECT_GT(r.stats.get(intkeys::checksumVerified), 0.0);
    EXPECT_EQ(r.stats.get(intkeys::checksumMismatch), 0.0);
    EXPECT_EQ(r.stats.get(intkeys::fallbackRaw), 0.0);
    EXPECT_LT(r.state.maxAbsDiff(simulateReference(circuit)), 1e-12);
}

TEST(FaultSmoke, SampledVerifyStaysExactAndComputesLess)
{
    // The default --verify-chunks configuration tracks a rotating
    // sample of chunks per sweep: it must cost measurably fewer hash
    // passes than full tracking while leaving the result untouched.
    const Circuit circuit = circuits::makeBenchmark("qft", 8);
    ExecOptions full = faultlessOptions();
    full.verifyChunks = true;
    full.verifySampleChunks = 0;
    Machine m_full = harness::benchMachine(8);
    const RunResult rf = harness::runOn("qgpu", m_full, circuit, full);
    ASSERT_TRUE(rf.ok());

    ExecOptions sampled = faultlessOptions();
    sampled.verifyChunks = true;
    sampled.verifySampleChunks = 4;
    Machine m_sampled = harness::benchMachine(8);
    const RunResult rs =
        harness::runOn("qgpu", m_sampled, circuit, sampled);
    ASSERT_TRUE(rs.ok());
    EXPECT_GT(rs.stats.get(intkeys::checksumComputed), 0.0);
    EXPECT_LT(rs.stats.get(intkeys::checksumComputed),
              rf.stats.get(intkeys::checksumComputed));
    EXPECT_EQ(rs.stats.get(intkeys::checksumMismatch), 0.0);
    EXPECT_EQ(rs.state.maxAbsDiff(rf.state), 0.0);
}

TEST(FaultSmoke, RecoveredFaultsLeaveTheStateBitIdentical)
{
    const Circuit circuit = circuits::makeBenchmark("random", 8);
    Machine m_ref = harness::benchMachine(8);
    const RunResult ref =
        harness::runOn("qgpu", m_ref, circuit, faultlessOptions());
    ASSERT_TRUE(ref.ok());

    ExecOptions o = faultlessOptions();
    o.faultSpec = "h2d:0.05,d2h:0.05,codec:0.3,alloc:0.1";
    o.faultSeed = 1234;
    Machine m = harness::benchMachine(8);
    const RunResult r = harness::runOn("qgpu", m, circuit, o);
    ASSERT_TRUE(r.ok()) << r.error->toString();
    // Corruption hits the compressed sidecar, never the
    // authoritative chunks: recovery must be exact, not approximate.
    EXPECT_EQ(r.state.maxAbsDiff(ref.state), 0.0);
    EXPECT_GT(r.stats.get(intkeys::checksumMismatch) +
                  r.stats.get(intkeys::fallbackRaw),
              0.0)
        << "fault spec injected nothing -- smoke test lost its bite";
    // Recovered runs also burn extra virtual time, never less.
    EXPECT_GE(r.totalTime, ref.totalTime);
}

TEST(FaultSmoke, ExhaustedRetriesSurfaceAsStructuredError)
{
    const Circuit circuit = circuits::makeBenchmark("qft", 8);
    ExecOptions o = faultlessOptions();
    o.faultSpec = "d2h:1.0";
    o.keepState = true;
    Machine m = harness::benchMachine(8);
    const RunResult r = harness::runOn("qgpu", m, circuit, o);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error->code, SimErrorCode::TransferFailed);
    EXPECT_EQ(r.error->point, "d2h");
    EXPECT_EQ(r.error->attempts, o.transferRetries + 1);
    EXPECT_EQ(r.stats.get(intkeys::simErrors), 1.0);
    // The documented contract: a failed run keeps the |0...0>
    // placeholder of the circuit's register, never a partial state.
    EXPECT_EQ(r.state.numQubits(), 8);
    EXPECT_EQ(r.state.amplitudes(), StateVector(8).amplitudes());
}

TEST(FaultSmoke, FaultSequenceIsSeedStableAcrossThreadCounts)
{
    const Circuit circuit = circuits::makeBenchmark("random", 8);
    ExecOptions o = faultlessOptions();
    o.faultSpec = "d2h:0.1,codec:0.2";
    o.faultSeed = 77;

    StatSet first;
    for (const int threads : {1, 3}) {
        setSimThreads(threads);
        Machine m = harness::benchMachine(8);
        const RunResult r = harness::runOn("qgpu", m, circuit, o);
        ASSERT_TRUE(r.ok());
        if (threads == 1) {
            first = r.stats;
            continue;
        }
        for (const char *key :
             {intkeys::faultKey(FaultPoint::D2H),
              intkeys::faultKey(FaultPoint::Codec),
              intkeys::checksumMismatch, intkeys::fallbackRaw,
              intkeys::retryKey(FaultPoint::D2H)})
            EXPECT_EQ(r.stats.get(key), first.get(key)) << key;
    }
    setSimThreads(1);
}

} // namespace
} // namespace qgpu
