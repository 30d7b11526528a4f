/**
 * @file
 * The engine work ledger: a committed record of what every engine run
 * on a fixed grid does, compared at tolerance 0. Each line holds one
 * run's virtual total time, a digest of every stat counter, and a
 * digest of the final state (for shot batches: of the outcomes and the
 * per-shot states). Any change to the modeled schedule, a counter, or
 * the functional result moves a line, so a refactor that claims "no
 * virtual time moves" is checked here rather than promised.
 *
 * Grid per circuit family, at 8 qubits: the six paper versions x five
 * machine shapes x six option sets, plus one Shared and one PerShot
 * noisy batch. Every input that could move the results outside the
 * code (the fast-math environment flag, the fault spec environment
 * variable, the host-RAM-derived working set) is pinned.
 *
 * The fixture is rewritten by the disabled test below:
 *
 *   test_engine_ledger --gtest_also_run_disabled_tests \
 *       --gtest_filter='EngineLedgerFixture.DISABLED_Regenerate'
 *
 * A change that means to move virtual time regenerates it and says so.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "engine/batched.hh"
#include "fault/checksum.hh"
#include "harness/experiment.hh"

namespace qgpu
{
namespace
{

constexpr int kQubits = 8;
constexpr std::uint64_t kShots = 32;
constexpr const char *kNoise = "pauli1:0.02,readout:0.01";
constexpr const char *kFaults = "h2d:0.05,d2h:0.05,peer:0.05,codec:0.02";

struct Shape
{
    const char *name;
    std::function<Machine()> make;
};

const std::vector<Shape> &
shapes()
{
    static const std::vector<Shape> all = {
        {"bench1", [] { return harness::benchMachine(kQubits, 1); }},
        {"bench2", [] { return harness::benchMachine(kQubits, 2); }},
        {"p4x1",
         [] {
             return machines::makeScaled(kQubits, machines::p4(), 1.0,
                                         1);
         }},
        {"p4x4",
         [] {
             return machines::makeScaled(kQubits, machines::p4(), 1.0,
                                         4);
         }},
        {"nvlinkx2",
         [] {
             return machines::makeScaled(kQubits, machines::v100Nvlink(),
                                         1.0, 2);
         }},
    };
    return all;
}

/** Grid base: 32 chunks of 8 amplitudes, so the dynamic chunk size
 *  (and with it rechunking) has room to move. */
ExecOptions
baseOptions()
{
    ExecOptions o;
    o.targetChunks = 32;
    o.fastMath = false;
    o.faultSpec = "none";
    o.workingSetChunks = 0;
    o.keepState = true;
    return o;
}

std::vector<std::pair<const char *, ExecOptions>>
optionSets()
{
    std::vector<std::pair<const char *, ExecOptions>> sets;
    sets.emplace_back("default", baseOptions());
    ExecOptions o = baseOptions();
    o.precision = Precision::f32;
    sets.emplace_back("f32", o);
    o = baseOptions();
    o.precision = Precision::adaptive;
    sets.emplace_back("adaptive", o);
    o = baseOptions();
    o.verifyChunks = true;
    sets.emplace_back("verify", o);
    o = baseOptions();
    o.storage = StorageKind::Compressed;
    o.workingSetChunks = 8;
    sets.emplace_back("compressed", o);
    o = baseOptions();
    o.faultSpec = kFaults;
    o.transferRetries = 8;
    sets.emplace_back("faults", o);
    return sets;
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** Digest of every counter, in name order, over exact bit patterns. */
std::string
statsDigest(const StatSet &stats)
{
    std::vector<std::string> names = stats.names();
    std::sort(names.begin(), names.end());
    std::string text;
    for (const std::string &name : names) {
        const double v = stats.get(name);
        text += name;
        text += '=';
        text.append(reinterpret_cast<const char *>(&v), sizeof v);
        text += ';';
    }
    return hex64(checksumBytes(text.data(), text.size()));
}

/** One ledger line plus the stats it digests (printed on mismatch). */
struct Entry
{
    std::string line;
    std::string stats;
};

std::string
formatLine(const std::string &key, double total, const StatSet &stats,
           std::uint64_t state_digest)
{
    char time[32];
    std::snprintf(time, sizeof time, "%.17g", total);
    return key + " " + time + " " + statsDigest(stats) + " " +
           hex64(state_digest);
}

std::vector<Entry>
familyLedger(const std::string &family)
{
    const Circuit circuit = circuits::makeBenchmark(family, kQubits);
    std::vector<Entry> out;
    for (const Shape &shape : shapes()) {
        for (const auto &[set_name, options] : optionSets()) {
            for (const Version v : allVersions()) {
                Machine m = shape.make();
                const RunResult r =
                    makeVersion(v, m, options)->run(circuit);
                const std::string key =
                    family + "/" + versionName(v) + "/" + shape.name +
                    "/" + set_name;
                out.push_back(
                    {formatLine(key, r.totalTime, r.stats,
                                checksumAmps(r.state.amplitudes())),
                     r.stats.toString()});
            }
        }
    }
    for (const BatchMode mode : {BatchMode::Shared, BatchMode::PerShot}) {
        ExecOptions o = baseOptions();
        o.noiseSpec = kNoise;
        o.batchMode = mode;
        o.keepShotStates = true;
        Machine m = harness::benchMachine(kQubits);
        const BatchResult br =
            makeVersion(Version::QGpu, m, o)->runBatched(circuit, kShots);
        std::string bytes(
            reinterpret_cast<const char *>(br.outcomes.data()),
            br.outcomes.size() * sizeof(Index));
        for (const StateVector &s : br.states) {
            const std::uint64_t d = checksumAmps(s.amplitudes());
            bytes.append(reinterpret_cast<const char *>(&d), sizeof d);
        }
        const std::string key =
            family + "/batch/" +
            (mode == BatchMode::Shared ? "shared" : "pershot");
        out.push_back({formatLine(key, 0.0, br.stats,
                                  checksumBytes(bytes.data(),
                                                bytes.size())),
                       br.stats.toString()});
    }
    return out;
}

std::string
fixturePath()
{
    return QGPU_ENGINE_LEDGER_FIXTURE;
}

/** Fixture lines of @p family, keyed by run. */
std::map<std::string, std::string>
fixtureFor(const std::string &family)
{
    std::map<std::string, std::string> lines;
    std::ifstream in(fixturePath());
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(family + "/", 0) == 0)
            lines[line.substr(0, line.find(' '))] = line;
    }
    return lines;
}

class EngineLedger : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EngineLedger, MatchesFixture)
{
    const std::string &family = GetParam();
    const std::map<std::string, std::string> want = fixtureFor(family);
    ASSERT_FALSE(want.empty())
        << "no ledger lines for " << family << " in " << fixturePath();
    const std::vector<Entry> got = familyLedger(family);
    EXPECT_EQ(got.size(), want.size());
    for (const Entry &e : got) {
        const std::string key = e.line.substr(0, e.line.find(' '));
        const auto it = want.find(key);
        if (it == want.end()) {
            ADD_FAILURE() << "run missing from the fixture: " << e.line;
            continue;
        }
        EXPECT_EQ(e.line, it->second) << "stats of " << key << ":\n"
                                      << e.stats;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Families, EngineLedger,
    ::testing::ValuesIn(circuits::benchmarkNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(EngineLedgerFixture, DISABLED_Regenerate)
{
    std::ostringstream text;
    for (const std::string &family : circuits::benchmarkNames())
        for (const Entry &e : familyLedger(family))
            text << e.line << "\n";
    std::ofstream out(fixturePath());
    ASSERT_TRUE(out.good()) << "cannot write " << fixturePath();
    out << text.str();
}

} // namespace
} // namespace qgpu
