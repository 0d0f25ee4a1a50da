/**
 * @file
 * Scenario-engine soak tests: every gallery campaign under
 * scenarios/ must pass its own [expect] invariants, be byte-identical
 * across two same-seed runs (obs trace + metrics dump), AND hash to
 * the golden digests below — the cross-commit pin that a refactor
 * kept behaviour. An inline campaign proves that a brand-new chaos
 * composition needs only a text file — no C++. Parser error paths
 * round out the strict-INI contract (typos fail loudly).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <string>
#include <vector>

#include "common/hex.hpp"
#include "crypto/sha256.hpp"
#include "salus/scenario.hpp"

using namespace salus;
using namespace salus::core;

#ifndef SALUS_SCENARIO_DIR
#define SALUS_SCENARIO_DIR "scenarios"
#endif

namespace {

/** Runs a campaign twice and enforces pass + byte determinism.
 *  @return the first run's outcome. */
ScenarioOutcome
runTwiceAndCheck(const Scenario &sc)
{
    ScenarioOutcome first = runScenario(sc);
    EXPECT_TRUE(first.deployOk) << sc.name << ": deployment failed";
    for (const std::string &v : first.violations)
        ADD_FAILURE() << sc.name << ": " << v;
    EXPECT_TRUE(first.passed());

    ScenarioOutcome second = runScenario(sc);
    // Same seed, same file: the full observability record must match
    // byte for byte — this is the determinism contract campaigns are
    // debugged and triaged against.
    EXPECT_EQ(first.traceJson, second.traceJson)
        << sc.name << ": trace diverged between same-seed runs";
    EXPECT_EQ(first.metricsText, second.metricsText)
        << sc.name << ": metrics diverged between same-seed runs";
    EXPECT_EQ(first.completed, second.completed);
    EXPECT_EQ(first.clockEnd, second.clockEnd);
    return first;
}

std::string
galleryPath(const std::string &file)
{
    return std::string(SALUS_SCENARIO_DIR) + "/" + file;
}

/** Every `*.scn` file in the gallery directory, sorted by name. */
std::vector<std::string>
galleryFiles()
{
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(SALUS_SCENARIO_DIR, ec)) {
        if (entry.path().extension() == ".scn")
            files.push_back(entry.path().filename().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

/**
 * SHA-256 (hex) of each gallery campaign's traceJson and metricsText.
 * These are the bytes `salus_cli run-scenario FILE --once --trace-out
 * T --metrics-out M` writes, so a row is regenerated with that
 * command plus sha256sum — only for a deliberate behaviour change,
 * named as such in the change log. The scalar and accelerated crypto
 * backends produce the same bytes.
 */
struct GoldenDigest
{
    const char *file;
    const char *trace;
    const char *metrics;
};

const GoldenDigest kGolden[] = {
    {"broker_overload.scn",
     "789208aa26298d4126e730a6e9aab5f2ff00f11cc14a39f403e218817f5580ad",
     "c7c3a7a2fdd0e7c3aa4a14be372dd2ba38cf058cae9b1af5b0b69929cccfb60c"},
    {"dma_storm.scn",
     "104747e2d775035d26af744ed07f9a8b40bc42bed25a27b8ee4c042143db499e",
     "3aaa9913c5ef83d16cc78b4b9b21676be3a78bb281692a7dae6e9d204fe3021d"},
    {"mass_rekey.scn",
     "9d82c61d8b38941da04ffeac0f975cdaaff419ff3fd75e19f183786fdfba3017",
     "3a52d6fc4c6e5249c77d5af679861a23e78a450e2bbc44f00525723c05167738"},
    {"noisy_neighbour.scn",
     "ca5675e19a614f27ba8d245f18637759110b5704d3d5287c91822818a6f2177e",
     "497bd790d29919e563f16d769b9e6ed6112cceacaf1886d1c8f377e5a5c20b5f"},
    {"seu_storm.scn",
     "e64b024d038e99d824eb8c90face2076129a65ad492b70e7af0fa8eadbd19f50",
     "cc03b707ef96cd771f22507a8873080db09488086206735d2cc7cd5ff3799a97"},
};

const GoldenDigest *
goldenFor(const std::string &file)
{
    for (const GoldenDigest &row : kGolden)
        if (file == row.file)
            return &row;
    return nullptr;
}

std::string
sha256Hex(const std::string &text)
{
    return hexEncode(crypto::Sha256::digest(ByteView(
        reinterpret_cast<const uint8_t *>(text.data()), text.size())));
}

class GalleryCampaign : public ::testing::TestWithParam<std::string>
{};

/** gtest parameter names allow only [A-Za-z0-9_]. */
std::string
campaignName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string name = std::filesystem::path(info.param).stem().string();
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name;
}

} // namespace

// ------------------------------------------------------- gallery runs

TEST_P(GalleryCampaign, PassesIsDeterministicAndMatchesGoldenDigests)
{
    const std::string &file = GetParam();
    const GoldenDigest *golden = goldenFor(file);
    ASSERT_NE(golden, nullptr)
        << file << " has no row in kGolden: add its digests";
    ScenarioOutcome out =
        runTwiceAndCheck(parseScenarioFile(galleryPath(file)));
    EXPECT_EQ(sha256Hex(out.traceJson), golden->trace)
        << file << ": trace bytes changed";
    EXPECT_EQ(sha256Hex(out.metricsText), golden->metrics)
        << file << ": metrics bytes changed";
}

INSTANTIATE_TEST_SUITE_P(ScenarioGallery, GalleryCampaign,
                         ::testing::ValuesIn(galleryFiles()),
                         campaignName);

TEST(ScenarioGallery, EveryGoldenRowHasAFileOnDisk)
{
    std::vector<std::string> files = galleryFiles();
    EXPECT_FALSE(files.empty()) << "no *.scn in " << SALUS_SCENARIO_DIR;
    for (const GoldenDigest &row : kGolden)
        EXPECT_NE(std::find(files.begin(), files.end(), row.file),
                  files.end())
            << row.file << " is in kGolden but not on disk";
}

// Named per-campaign checks for the original gallery files, so a
// failure reads as the campaign that broke even when the directory
// scan above finds nothing.

TEST(ScenarioGallery, NoisyNeighbourPassesAndIsDeterministic)
{
    runTwiceAndCheck(parseScenarioFile(galleryPath("noisy_neighbour.scn")));
}

TEST(ScenarioGallery, SeuStormPassesAndIsDeterministic)
{
    runTwiceAndCheck(parseScenarioFile(galleryPath("seu_storm.scn")));
}

TEST(ScenarioGallery, MassRekeyPassesAndIsDeterministic)
{
    runTwiceAndCheck(parseScenarioFile(galleryPath("mass_rekey.scn")));
}

TEST(ScenarioGallery, BrokerOverloadShedsAndRecovers)
{
    ScenarioOutcome out =
        runScenario(parseScenarioFile(galleryPath("broker_overload.scn")));
    EXPECT_TRUE(out.passed());
    for (const std::string &v : out.violations)
        ADD_FAILURE() << v;
    // The overload campaign's defining arc, beyond its own [expect]
    // block: someone was shed, nobody stayed shed.
    EXPECT_GT(out.shedRejected, 0u);
    EXPECT_EQ(out.shedLevelEnd, 0u);
}

// -------------------------------------- campaigns are data, not C++

TEST(ScenarioEngine, InlineTextCampaignRunsWithoutAnyNewCode)
{
    // A composition no gallery file exercises (packet loss + delay on
    // a bursty two-tenant mix), built purely from text: the proof
    // that new chaos campaigns are data.
    const std::string text = R"(
[scenario]
name = inline-smoke
seed = 2024
devices = 1
sweeps = 12
poll_every = 3

[tenant fast]
weight = 2
max_queued_ops = 64
pattern = flood
ops_per_sweep = 16

[tenant slow]
weight = 1
max_queued_ops = 64
pattern = burst
ops_per_sweep = 8
burst_on = 2
burst_off = 2

[fault]
kind = delay_rpc
probability = 0.2
delay_us = 150

[expect]
completed_min = 100
no_starvation = 1
)";
    Scenario sc = parseScenario(text);
    EXPECT_EQ(sc.name, "inline-smoke");
    EXPECT_EQ(sc.tenants.size(), 2u);
    ASSERT_EQ(sc.faults.size(), 1u);
    EXPECT_EQ(sc.faults[0].kind, "delay_rpc");
    runTwiceAndCheck(sc);
}

TEST(ScenarioEngine, CleanPollFailoverCountsAgainstFailoversMax)
{
    // Device 0 dies mid-run; a watchdog poll quarantines it and fails
    // over cleanly (nothing throws). The failover must still count,
    // and the loop must keep serving on the spare afterwards.
    auto campaign = [](int failoversMax) {
        return parseScenario(R"(
[scenario]
name = clean-poll-failover
seed = 77
devices = 2
sweeps = 40
poll_every = 2

[tenant flood]
pattern = flood
ops_per_sweep = 8

[fault]
kind = device_dead
device = 0
at_ms = 4400

[expect]
failovers_max = )" + std::to_string(failoversMax) + "\n");
    };

    ScenarioOutcome strict = runScenario(campaign(0));
    EXPECT_TRUE(strict.deployOk);
    EXPECT_EQ(strict.failovers, 1u);
    ASSERT_EQ(strict.violations.size(), 1u);
    EXPECT_NE(strict.violations[0].find("failovers"), std::string::npos);

    ScenarioOutcome out = runTwiceAndCheck(campaign(1));
    EXPECT_EQ(out.failovers, 1u);
    EXPECT_GT(out.completed, 0u);
}

TEST(ScenarioEngine, LostSpareHeartbeatsQuarantineTheSpareOnly)
{
    // Every watchdog probe to spare device 1 is lost in flight. The
    // supervisor must quarantine the spare on that evidence alone and
    // leave the session serving on device 0: no failover. The
    // device-scoped reg_fault never fires (device 1 carries no
    // traffic); it pins that `device =` narrows a rule to one device.
    const std::string text = R"(
[scenario]
name = spare-heartbeat-loss
seed = 31
devices = 2
sweeps = 24
poll_every = 2

[tenant steady]
pattern = flood
ops_per_sweep = 8

[fault]
kind = heartbeat_loss
device = 1
probability = 1

[fault]
kind = reg_fault
device = 1
probability = 1

[expect]
completed_min = 150
failovers_max = 0
)";
    Scenario sc = parseScenario(text);
    ASSERT_EQ(sc.faults.size(), 2u);
    EXPECT_EQ(sc.faults[1].toRule().device, 1u);
    ScenarioOutcome out = runTwiceAndCheck(sc);
    EXPECT_EQ(out.failovers, 0u);
    EXPECT_EQ(out.completed, 24u * 8u);
    ASSERT_EQ(out.deviceHealth.size(), 2u);
    EXPECT_EQ(out.deviceHealth[0], fpga::HealthState::Healthy);
    EXPECT_EQ(out.deviceHealth[1], fpga::HealthState::Quarantined);
    size_t lost = 0;
    for (const std::string &entry : out.faultJournal) {
        EXPECT_NE(entry.find(" heartbeat-loss device-1"), std::string::npos)
            << entry;
        ++lost;
    }
    EXPECT_GE(lost, 3u);
}

TEST(ScenarioEngine, ExpectViolationsAreReportedNotThrown)
{
    const std::string text = R"(
[scenario]
name = unreachable-bar
seed = 5
sweeps = 4

[tenant t]
pattern = trickle
ops_per_sweep = 2

[expect]
completed_min = 1000000
)";
    ScenarioOutcome out = runScenario(parseScenario(text));
    EXPECT_TRUE(out.deployOk);
    EXPECT_FALSE(out.passed());
    ASSERT_EQ(out.violations.size(), 1u);
    EXPECT_NE(out.violations[0].find("completed"), std::string::npos);
}

// ------------------------------------------------ strict-INI parsing

TEST(ScenarioParser, UnknownKeysAndSectionsAreErrors)
{
    EXPECT_THROW(parseScenario("[scenario]\nname = x\nbogus_key = 1\n"),
                 ScenarioError);
    EXPECT_THROW(parseScenario("[scenario]\nname = x\n[warp_drive]\n"),
                 ScenarioError);
    EXPECT_THROW(
        parseScenario("[scenario]\nname = x\n[tenant a]\nvelocity = 9\n"),
        ScenarioError);
}

TEST(ScenarioParser, MalformedValuesAreErrorsWithLineNumbers)
{
    try {
        parseScenario("[scenario]\nname = x\nsweeps = banana\n");
        FAIL() << "expected ScenarioError";
    } catch (const ScenarioError &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos);
    }
    // Out-of-bounds values are rejected even when numerically valid.
    EXPECT_THROW(parseScenario("[scenario]\nname = x\ndevices = 99\n"),
                 ScenarioError);
    EXPECT_THROW(parseScenario("[scenario]\nname = x\nsweeps = 0\n"),
                 ScenarioError);
    // Probabilities live in [0, 1].
    EXPECT_THROW(parseScenario("[scenario]\nname = x\n[fault]\n"
                               "kind = drop_rpc\nprobability = 1.5\n"),
                 ScenarioError);
}

TEST(ScenarioParser, StructuralMistakesAreErrors)
{
    // Missing [scenario] section entirely.
    EXPECT_THROW(parseScenario("[tenant a]\npattern = idle\n"),
                 ScenarioError);
    // Key before any section header.
    EXPECT_THROW(parseScenario("name = x\n[scenario]\n"), ScenarioError);
    // Duplicate tenant names would make stats ambiguous.
    EXPECT_THROW(parseScenario("[scenario]\nname = x\n"
                               "[tenant a]\n[tenant a]\n"),
                 ScenarioError);
    // Unknown fault kind / traffic pattern.
    EXPECT_THROW(parseScenario("[scenario]\nname = x\n[fault]\n"
                               "kind = gamma_rays\n"),
                 ScenarioError);
    EXPECT_THROW(parseScenario("[scenario]\nname = x\n[tenant a]\n"
                               "pattern = sideways\n"),
                 ScenarioError);
    // replay action requires the malicious shell to be enabled.
    EXPECT_THROW(parseScenario("[scenario]\nname = x\n[action]\n"
                               "kind = replay\nat_sweep = 1\n"),
                 ScenarioError);
}

TEST(ScenarioParser, GalleryFilesParseCleanlyFromDisk)
{
    std::vector<std::string> files = galleryFiles();
    EXPECT_FALSE(files.empty());
    for (const std::string &f : files) {
        Scenario fromDisk = parseScenarioFile(galleryPath(f));
        EXPECT_FALSE(fromDisk.name.empty()) << f;
        EXPECT_FALSE(fromDisk.tenants.empty()) << f;
    }
    EXPECT_THROW(parseScenarioFile(galleryPath("missing.scn")),
                 ScenarioError);
}
