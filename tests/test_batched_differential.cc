/**
 * @file
 * The stochastic-differential suite locking down batched-shot
 * execution (engine/batched.hh):
 *
 *   (a) noiseless runBatched(N) is bit-identical, shot by shot, to N
 *       independent single runs sampled with the same derived seeds;
 *   (b) noisy shots are bit-identical across host thread counts,
 *       device counts, storage backends, and both batch modes for
 *       fixed seeds (the draw-path determinism contract), and the
 *       Shared-mode shot fan-out returns exactly the serial batch,
 *       failure prefix and error included;
 *   (c) every noisy shot equals an independently constructed
 *       expanded-circuit run at tolerance 0 (trajectories are exact
 *       gate insertions, not approximations);
 *   (d) Pauli-channel outcome frequencies converge to the analytic
 *       distribution (chi-squared over >= 10k shots).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/parallel.hh"
#include "engine/batched.hh"
#include "fault/integrity.hh"
#include "harness/experiment.hh"
#include "noise/model.hh"
#include "statevec/measure.hh"

namespace qgpu
{
namespace
{

constexpr const char *kMix =
    "pauli1:0.05,pauli2:0.04,damp:0.03,readout:0.02";

class BatchedDifferential : public ::testing::Test
{
  protected:
    void TearDown() override { setSimThreads(1); }
};

TEST_F(BatchedDifferential, NoiselessBatchMatchesSingleRuns)
{
    constexpr int kN = 6;
    constexpr std::uint64_t kShots = 32;
    const Circuit circuit = circuits::makeBenchmark("qft", kN);

    ExecOptions o;
    o.faultSpec = "none";
    o.keepState = true;
    Machine machine = harness::benchMachine(kN);
    const auto engine = harness::makeEngine("qgpu", machine, o);

    const BatchResult br = engine->runBatched(circuit, kShots);
    ASSERT_TRUE(br.ok());
    ASSERT_EQ(br.outcomes.size(), kShots);
    EXPECT_EQ(br.stats.get(statkeys::noiseEvents), 0.0);

    // The single-run side: one engine run (deterministic state),
    // then shot i sampled with Rng(splitSeed(base, i)) -- exactly
    // what N independent `run(); sampleCounts(state, 1, rng)` calls
    // would do.
    Machine ref_machine = harness::benchMachine(kN);
    const RunResult ref =
        harness::runOn("qgpu", ref_machine, circuit, o);
    ASSERT_TRUE(ref.ok());
    for (std::uint64_t s = 0; s < kShots; ++s) {
        Rng rng(splitSeed(o.shotSeed, s));
        const auto counts = sampleCounts(ref.state, 1, rng);
        ASSERT_EQ(counts.size(), 1u);
        EXPECT_EQ(br.outcomes[s], counts.begin()->first)
            << "shot " << s;
    }
}

TEST_F(BatchedDifferential,
       NoisyShotsStableAcrossThreadsDevicesStorageAndMode)
{
    constexpr int kN = 7;
    constexpr std::uint64_t kShots = 8;
    const Circuit circuit = circuits::makeBenchmark("random", kN, 5);

    const auto runMatrixPoint = [&](int threads, int devices,
                                    StorageKind storage,
                                    BatchMode mode) {
        setSimThreads(threads);
        ExecOptions o;
        o.targetChunks = 32;
        o.faultSpec = "none";
        o.noiseSpec = kMix;
        o.batchMode = mode;
        o.keepShotStates = true;
        o.storage = storage;
        Machine machine = harness::benchMachine(kN, devices);
        const auto engine = harness::makeEngine("qgpu", machine, o);
        BatchResult br = engine->runBatched(circuit, kShots);
        setSimThreads(1);
        return br;
    };

    const BatchResult ref = runMatrixPoint(
        1, 1, StorageKind::Raw, BatchMode::Shared);
    ASSERT_TRUE(ref.ok());
    ASSERT_EQ(ref.states.size(), kShots);
    EXPECT_GT(ref.stats.get(statkeys::noiseEvents), 0.0);

    for (const int threads : {1, 4}) {
        for (const int devices : {1, 2, 4}) {
            for (const StorageKind storage :
                 {StorageKind::Raw, StorageKind::Compressed}) {
                for (const BatchMode mode :
                     {BatchMode::Shared, BatchMode::PerShot}) {
                    const BatchResult br = runMatrixPoint(
                        threads, devices, storage, mode);
                    ASSERT_TRUE(br.ok());
                    ASSERT_EQ(br.outcomes.size(), kShots);
                    const std::string where =
                        std::to_string(threads) + " threads, " +
                        std::to_string(devices) + " devices, " +
                        storageKindName(storage) +
                        (mode == BatchMode::Shared ? ", shared"
                                                   : ", pershot");
                    for (std::uint64_t s = 0; s < kShots; ++s) {
                        EXPECT_EQ(br.outcomes[s], ref.outcomes[s])
                            << where << ", shot " << s;
                        EXPECT_EQ(br.states[s].maxAbsDiff(
                                      ref.states[s]),
                                  0.0)
                            << where << ", shot " << s;
                    }
                }
            }
        }
    }
}

TEST_F(BatchedDifferential, FanOutMatchesSerialBatchIncludingFailure)
{
    // Shared mode fans shots out across the pool at 4 threads and runs
    // them one after another at 1. The fold must make the two batches
    // identical: outcomes, counts, every stats counter (names in
    // order), the kept states, and -- with codec faults armed so a
    // middle shot exhausts its retries -- the same error after the
    // same completed-shot prefix.
    constexpr int kN = 8;
    constexpr std::uint64_t kShots = 16;
    const Circuit circuit = circuits::makeBenchmark("random", kN);

    for (const char *faults : {"none", "codec:0.15"}) {
        const auto runAt = [&](int threads) {
            setSimThreads(threads);
            ExecOptions o;
            o.noiseSpec = kMix;
            o.keepShotStates = true;
            o.storage = StorageKind::Compressed;
            o.workingSetChunks = 4;
            o.faultSpec = faults;
            o.faultSeed = 2;
            Machine machine = harness::benchMachine(kN);
            BatchResult br = harness::makeEngine("qgpu", machine, o)
                                 ->runBatched(circuit, kShots);
            setSimThreads(1);
            return br;
        };
        const BatchResult serial = runAt(1);
        const BatchResult fanned = runAt(4);
        SCOPED_TRACE(faults);

        if (std::string(faults) == "none") {
            ASSERT_TRUE(serial.ok());
            ASSERT_EQ(serial.outcomes.size(), kShots);
        } else {
            ASSERT_FALSE(serial.ok());
            EXPECT_EQ(serial.error->code, SimErrorCode::CodecFailed);
            ASSERT_GT(serial.outcomes.size(), 0u);
            ASSERT_LT(serial.outcomes.size(), kShots);
        }
        EXPECT_EQ(serial.stats.get(statkeys::shotsTotal),
                  static_cast<double>(serial.outcomes.size()));
        EXPECT_EQ(serial.stats.get(intkeys::simErrors),
                  serial.ok() ? 0.0 : 1.0);
        ASSERT_EQ(fanned.ok(), serial.ok());
        if (!serial.ok()) {
            EXPECT_EQ(fanned.error->toString(),
                      serial.error->toString());
        }
        EXPECT_EQ(fanned.outcomes, serial.outcomes);
        EXPECT_EQ(fanned.counts, serial.counts);
        ASSERT_EQ(fanned.stats.names(), serial.stats.names());
        for (const auto &name : serial.stats.names())
            EXPECT_EQ(fanned.stats.get(name), serial.stats.get(name))
                << name;
        ASSERT_EQ(fanned.states.size(), serial.states.size());
        ASSERT_EQ(serial.states.size(), serial.outcomes.size());
        for (std::size_t s = 0; s < serial.states.size(); ++s)
            EXPECT_EQ(fanned.states[s].maxAbsDiff(serial.states[s]),
                      0.0)
                << "shot " << s;
    }
}

TEST(BatchedShotsInFlight, ThreadsCappedByAQuarterOfRam)
{
    constexpr std::uint64_t kGiB = std::uint64_t{1} << 30;
    // Small states: every simulator thread runs a shot.
    EXPECT_EQ(shotsInFlight(stateBytes(10), 16 * kGiB, 4), 4);
    EXPECT_EQ(shotsInFlight(stateBytes(10), 16 * kGiB, 1), 1);
    // A quarter of RAM (4 GiB) holds two 2 GiB states, one 3 GiB
    // state, and no 8 GiB state -- which still runs, one at a time.
    EXPECT_EQ(shotsInFlight(2 * kGiB, 16 * kGiB, 4), 2);
    EXPECT_EQ(shotsInFlight(3 * kGiB, 16 * kGiB, 4), 1);
    EXPECT_EQ(shotsInFlight(8 * kGiB, 16 * kGiB, 4), 1);
    EXPECT_EQ(shotsInFlight(2 * kGiB, 16 * kGiB, 64), 2);
    // Degenerate inputs never go below one shot.
    EXPECT_EQ(shotsInFlight(0, 0, 0), 1);
    EXPECT_EQ(shotsInFlight(stateBytes(10), 0, 4), 1);
}

TEST_F(BatchedDifferential, ShotsMatchIndependentlyExpandedCircuits)
{
    // "pruning" keeps reordering/fusion off, so the executed order
    // IS the circuit order and the test can rebuild each shot's
    // trajectory from scratch: resample the events with the same
    // derived seed, materialize them into an expanded circuit, and
    // run THAT through a fresh engine. Tolerance 0 -- trajectories
    // are exact gate insertions.
    constexpr int kN = 6;
    constexpr std::uint64_t kShots = 12;
    const Circuit circuit = circuits::makeBenchmark("random", kN, 9);

    ExecOptions o;
    o.targetChunks = 32;
    o.faultSpec = "none";
    o.noiseSpec = kMix;
    o.keepShotStates = true;
    Machine machine = harness::benchMachine(kN);
    const auto engine = harness::makeEngine("pruning", machine, o);
    const BatchResult br = engine->runBatched(circuit, kShots);
    ASSERT_TRUE(br.ok());
    ASSERT_EQ(br.states.size(), kShots);

    const noise::NoiseModel model = noise::NoiseModel::parse(kMix);
    ExecOptions to = o;
    to.noiseSpec = "";
    to.keepShotStates = false;
    to.keepState = true;
    for (std::uint64_t s = 0; s < kShots; ++s) {
        Rng rng(splitSeed(o.shotSeed, s));
        const auto events = model.sample(
            std::span<const Gate>(circuit.gates()), rng);
        const Circuit expanded = noise::expandCircuit(
            circuit, std::span<const noise::NoiseEvent>(events));

        Machine twin_machine = harness::benchMachine(kN);
        const RunResult twin = harness::runOn(
            "pruning", twin_machine, expanded, to);
        ASSERT_TRUE(twin.ok()) << "shot " << s;
        EXPECT_EQ(br.states[s].maxAbsDiff(twin.state), 0.0)
            << "shot " << s << " diverged from its expanded twin";
        EXPECT_LT(twin.state.maxAbsDiff(simulateReference(expanded)),
                  1e-12)
            << "shot " << s;

        // The outcome stream continues the same RNG: one outcome
        // draw over the twin state, then readout flips.
        const auto counts = sampleCounts(twin.state, 1, rng);
        ASSERT_EQ(counts.size(), 1u);
        Index outcome = counts.begin()->first;
        outcome ^= model.sampleReadoutFlips(kN, rng);
        EXPECT_EQ(br.outcomes[s], outcome) << "shot " << s;
    }
}

TEST_F(BatchedDifferential, ExplicitShotSeedsOverrideDerivation)
{
    constexpr int kN = 5;
    const Circuit circuit = circuits::makeBenchmark("random", kN, 2);
    ExecOptions o;
    o.faultSpec = "none";
    o.noiseSpec = "pauli1:0.2";
    Machine machine = harness::benchMachine(kN);
    const auto engine = harness::makeEngine("qgpu", machine, o);

    const std::vector<std::uint64_t> seeds = {11, 22, 33, 44};
    std::vector<std::uint64_t> reversed(seeds.rbegin(),
                                        seeds.rend());
    const BatchResult fwd = engine->runBatched(
        circuit, seeds.size(),
        std::span<const std::uint64_t>(seeds));
    const BatchResult rev = engine->runBatched(
        circuit, reversed.size(),
        std::span<const std::uint64_t>(reversed));
    ASSERT_TRUE(fwd.ok());
    ASSERT_TRUE(rev.ok());
    ASSERT_EQ(fwd.outcomes.size(), seeds.size());
    // Per-shot results are a pure function of the shot seed: the
    // reversed batch is the reversed outcome sequence (and the
    // aggregate counts are identical).
    for (std::size_t i = 0; i < seeds.size(); ++i)
        EXPECT_EQ(fwd.outcomes[i],
                  rev.outcomes[seeds.size() - 1 - i]);
    EXPECT_EQ(fwd.counts, rev.counts);
}

TEST_F(BatchedDifferential, PauliFrequenciesMatchAnalytic)
{
    // x(q) on each of 3 qubits under pauli1 px=py=pz=0.05: an X or Y
    // error after the gate flips that qubit's measured bit, Z does
    // not, so P(bit q = 0) = 0.1 independently per qubit. The final
    // state of every trajectory is a basis state, so the outcome
    // draw is deterministic and the frequencies are purely the
    // channel's -- a chi-squared fit over all 8 cells at 10k shots.
    constexpr int kN = 3;
    constexpr std::uint64_t kShots = 10000;
    Circuit circuit(kN, "flip3");
    circuit.x(0);
    circuit.x(1);
    circuit.x(2);

    ExecOptions o;
    o.faultSpec = "none";
    o.noiseSpec = "pauli1:0.05:0.05:0.05";
    Machine machine = harness::benchMachine(kN);
    const auto engine = harness::makeEngine("qgpu", machine, o);
    const BatchResult br = engine->runBatched(circuit, kShots);
    ASSERT_TRUE(br.ok());

    const double p_flip = 0.1; // px + py
    double chi2 = 0.0;
    for (Index cell = 0; cell < (Index{1} << kN); ++cell) {
        double p = 1.0;
        for (int q = 0; q < kN; ++q)
            p *= ((cell >> q) & 1) ? 1.0 - p_flip : p_flip;
        const double expected = p * static_cast<double>(kShots);
        const auto it = br.counts.find(cell);
        const double observed =
            it == br.counts.end()
                ? 0.0
                : static_cast<double>(it->second);
        chi2 += (observed - expected) * (observed - expected) /
                expected;
    }
    // 7 degrees of freedom; 24.32 is the 0.999 quantile. The seeds
    // are fixed, so this never flakes -- it fails only if the
    // channel's sampling distribution drifts.
    EXPECT_LT(chi2, 24.32);
    // And the marginals are near the analytic flip rate.
    for (int q = 0; q < kN; ++q) {
        std::uint64_t zeros = 0;
        for (const auto &[outcome, hits] : br.counts)
            if (((outcome >> q) & 1) == 0)
                zeros += hits;
        EXPECT_NEAR(static_cast<double>(zeros) /
                        static_cast<double>(kShots),
                    p_flip, 0.015)
            << "qubit " << q;
    }
}

} // namespace
} // namespace qgpu
