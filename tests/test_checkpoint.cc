/**
 * @file
 * Checkpoint/restore and sampled-simulation tests: restore-then-resume
 * must be RunResult-identical to a straight-through run for every
 * organization, damaged checkpoint files must be
 * rejected with structured errors, and sampled runs must be
 * deterministic at a fixed seed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cpu/system.hh"
#include "sim/checkpoint.hh"

using namespace nocstar;
using namespace nocstar::cpu;

namespace
{

SystemConfig
smallConfig(core::OrgKind kind, unsigned cores = 8)
{
    SystemConfig config;
    config.org.kind = kind;
    config.org.numCores = cores;
    {
        cpu::AppConfig app_config;
        app_config.spec = workload::testWorkload();
        app_config.threads = cores;
        config.apps.push_back(std::move(app_config));
    }
    config.seed = 7;
    return config;
}

std::string
ckptPath(const std::string &name)
{
    return ::testing::TempDir() + "nocstar_" + name + ".ckpt";
}

/** Every RunResult field the timing model produces must agree. */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.meanCycles, b.meanCycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.appCycles, b.appCycles);
    EXPECT_EQ(a.appIpc, b.appIpc);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.walks, b.walks);
    EXPECT_DOUBLE_EQ(a.avgL2AccessLatency, b.avgL2AccessLatency);
    EXPECT_DOUBLE_EQ(a.avgWalkLatency, b.avgWalkLatency);
    EXPECT_DOUBLE_EQ(a.l2MissRate, b.l2MissRate);
    EXPECT_DOUBLE_EQ(a.energyPj, b.energyPj);
    EXPECT_DOUBLE_EQ(a.beyondL2Fraction, b.beyondL2Fraction);
    EXPECT_DOUBLE_EQ(a.fabricAvgLatency, b.fabricAvgLatency);
    EXPECT_DOUBLE_EQ(a.fabricNoContention, b.fabricNoContention);
    EXPECT_EQ(a.fabricSetupAttempts, b.fabricSetupAttempts);
    EXPECT_EQ(a.fabricSetupFailures, b.fabricSetupFailures);
    EXPECT_EQ(a.shootdowns, b.shootdowns);
    EXPECT_EQ(a.concurrencyBuckets, b.concurrencyBuckets);
    EXPECT_EQ(a.sliceConcurrencyBuckets, b.sliceConcurrencyBuckets);
    EXPECT_EQ(a.sampled, b.sampled);
    EXPECT_EQ(a.sampleWindows, b.sampleWindows);
    EXPECT_EQ(a.sampledFfAccesses, b.sampledFfAccesses);
    EXPECT_DOUBLE_EQ(a.sampledIpcMean, b.sampledIpcMean);
    EXPECT_DOUBLE_EQ(a.sampledIpcCi95, b.sampledIpcCi95);
    EXPECT_DOUBLE_EQ(a.sampledLatencyMean, b.sampledLatencyMean);
    EXPECT_DOUBLE_EQ(a.sampledLatencyCi95, b.sampledLatencyCi95);
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::vector<std::uint8_t> buf;
    int c;
    while ((c = std::fgetc(f)) != EOF)
        buf.push_back(static_cast<std::uint8_t>(c));
    std::fclose(f);
    return buf;
}

void
writeFile(const std::string &path, const std::vector<std::uint8_t> &buf)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    std::fwrite(buf.data(), 1, buf.size(), f);
    std::fclose(f);
}

} // namespace

class CheckpointRoundTrip
    : public ::testing::TestWithParam<core::OrgKind>
{};

TEST_P(CheckpointRoundTrip, RestoreResumesIdentically)
{
    const std::string path = ckptPath("roundtrip");
    // Straight-through reference run (also exercises save-then-keep-
    // running: writing the checkpoint must not perturb the run).
    SystemConfig save_config = smallConfig(GetParam());
    save_config.checkpointSavePath = path;
    RunResult saved = System(save_config).run(2000);

    RunResult plain = System(smallConfig(GetParam())).run(2000);
    expectSameResult(saved, plain);

    SystemConfig restore_config = smallConfig(GetParam());
    restore_config.checkpointRestorePath = path;
    RunResult restored = System(restore_config).run(2000);
    expectSameResult(restored, plain);
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllOrgs, CheckpointRoundTrip,
    ::testing::Values(core::OrgKind::Private,
                      core::OrgKind::MonolithicMesh,
                      core::OrgKind::MonolithicSmart,
                      core::OrgKind::Distributed,
                      core::OrgKind::IdealShared,
                      core::OrgKind::Nocstar,
                      core::OrgKind::NocstarIdeal));

TEST(Checkpoint, RoundTripAcrossObservabilityKnobs)
{
    // The fingerprint deliberately excludes observability knobs: a
    // checkpoint taken with latency histograms off restores with them
    // on (and vice versa), reproducing that configuration's own
    // straight-through result exactly.
    const std::string path = ckptPath("knobs");
    for (bool save_hist : {false, true}) {
        SystemConfig save_config = smallConfig(core::OrgKind::Nocstar);
        save_config.latencyStats = save_hist;
        save_config.checkpointSavePath = path;
        System(save_config).run(2000);
        for (bool run_hist : {false, true}) {
            SystemConfig config = smallConfig(core::OrgKind::Nocstar);
            config.latencyStats = run_hist;
            RunResult plain = System(config).run(2000);
            config.checkpointRestorePath = path;
            RunResult restored = System(config).run(2000);
            expectSameResult(restored, plain);
        }
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsFatal)
{
    SystemConfig config = smallConfig(core::OrgKind::Private);
    config.checkpointRestorePath = ckptPath("does_not_exist");
    System system(config);
    EXPECT_THROW(system.run(500), FatalError);
}

TEST(Checkpoint, DamagedFilesAreRejected)
{
    const std::string path = ckptPath("damage");
    SystemConfig save_config = smallConfig(core::OrgKind::Nocstar);
    save_config.checkpointSavePath = path;
    System(save_config).run(1000);
    const std::vector<std::uint8_t> good = readFile(path);
    ASSERT_GT(good.size(), 64u);

    auto restore = [&] {
        SystemConfig config = smallConfig(core::OrgKind::Nocstar);
        config.checkpointRestorePath = path;
        return System(config).run(1000);
    };

    // Bad magic.
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0xff;
    writeFile(path, bad);
    EXPECT_THROW(restore(), FatalError);

    // Unsupported format version (checked before the checksum, so the
    // rejection names the version, not generic corruption).
    bad = good;
    bad[4] += 1;
    writeFile(path, bad);
    try {
        restore();
        FAIL() << "version mismatch not rejected";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("version"),
                  std::string::npos)
            << err.what();
    }

    // Truncated below the header.
    bad = std::vector<std::uint8_t>(good.begin(), good.begin() + 16);
    writeFile(path, bad);
    EXPECT_THROW(restore(), FatalError);

    // Truncated mid-payload.
    bad = std::vector<std::uint8_t>(good.begin(),
                                    good.begin() + good.size() / 2);
    writeFile(path, bad);
    EXPECT_THROW(restore(), FatalError);

    // Flipped payload byte: checksum mismatch.
    bad = good;
    bad[good.size() / 2] ^= 0x40;
    writeFile(path, bad);
    try {
        restore();
        FAIL() << "corruption not rejected";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("checksum"),
                  std::string::npos)
            << err.what();
    }

    // Undamaged file still restores after all that.
    writeFile(path, good);
    EXPECT_NO_THROW(restore());
    std::remove(path.c_str());
}

TEST(Checkpoint, ConfigFingerprintMismatchIsRejected)
{
    const std::string path = ckptPath("fingerprint");
    SystemConfig save_config = smallConfig(core::OrgKind::Nocstar);
    save_config.checkpointSavePath = path;
    System(save_config).run(1000);

    // Same organization, different functional state shape (seed).
    SystemConfig other = smallConfig(core::OrgKind::Nocstar);
    other.seed = 8;
    other.checkpointRestorePath = path;
    {
        System system(other);
        try {
            system.run(1000);
            FAIL() << "fingerprint mismatch not rejected";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find("fingerprint"),
                      std::string::npos)
                << err.what();
        }
    }

    // Different organization entirely.
    SystemConfig wrong_org = smallConfig(core::OrgKind::Private);
    wrong_org.checkpointRestorePath = path;
    {
        System system(wrong_org);
        EXPECT_THROW(system.run(1000), FatalError);
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, ForbiddenFeaturesFailValidation)
{
    // Periodic mutation events and fault plans would have to be
    // serialized mid-flight; validate() forbids the combination
    // instead of silently diverging.
    SystemConfig config = smallConfig(core::OrgKind::Nocstar);
    config.checkpointSavePath = ckptPath("invalid");
    config.contextSwitchInterval = 1000;
    EXPECT_FALSE(config.validate().empty());

    SystemConfig sampled = smallConfig(core::OrgKind::Nocstar);
    sampled.sampling.windows = 4;
    sampled.sampling.detailAccesses = 100;
    sampled.statsEpochInterval = 500;
    EXPECT_FALSE(sampled.validate().empty());

    // One detail window is not a sample.
    SystemConfig degenerate = smallConfig(core::OrgKind::Nocstar);
    degenerate.sampling.windows = 1;
    degenerate.sampling.detailAccesses = 100;
    EXPECT_FALSE(degenerate.validate().empty());
}

TEST(Sampling, DeterministicAtFixedSeed)
{
    SystemConfig config = smallConfig(core::OrgKind::Nocstar);
    config.sampling.windows = 4;
    config.sampling.detailAccesses = 200;
    config.sampling.warmupAccesses = 500;
    RunResult a = System(config).run(4000);
    RunResult b = System(config).run(4000);
    expectSameResult(a, b);
    EXPECT_TRUE(a.sampled);
    EXPECT_EQ(a.sampleWindows, 4u);
    EXPECT_GT(a.sampledFfAccesses, 0u);
    EXPECT_GT(a.sampledIpcMean, 0.0);
    EXPECT_GT(a.sampledLatencyMean, 0.0);
    // Detail windows simulate only windows * detailAccesses accesses
    // per thread in the timing model.
    EXPECT_EQ(a.l1Accesses, 8u * 4u * 200u);
}

TEST(Sampling, SampledRestoreMatchesStraightThrough)
{
    const std::string path = ckptPath("sampled");
    auto sampled_config = [&] {
        SystemConfig config = smallConfig(core::OrgKind::Nocstar);
        config.sampling.windows = 4;
        config.sampling.detailAccesses = 200;
        config.sampling.warmupAccesses = 500;
        return config;
    };
    SystemConfig save_config = sampled_config();
    save_config.checkpointSavePath = path;
    RunResult saved = System(save_config).run(4000);

    SystemConfig restore_config = sampled_config();
    restore_config.checkpointRestorePath = path;
    RunResult restored = System(restore_config).run(4000);
    expectSameResult(saved, restored);
    std::remove(path.c_str());
}

TEST(Sampling, WarmupOnlyFastForwardRuns)
{
    // warmupAccesses without measurement windows is a standalone
    // functional warming mode: the detail phase starts 2000 stream
    // positions in, against functionally-evolved TLB/cache state,
    // and must stay deterministic.
    SystemConfig warm = smallConfig(core::OrgKind::Nocstar);
    warm.sampling.warmupAccesses = 2000;
    RunResult hot = System(warm).run(1000);
    RunResult again = System(warm).run(1000);
    expectSameResult(hot, again);
    RunResult cold = System(smallConfig(core::OrgKind::Nocstar))
                         .run(1000);
    EXPECT_FALSE(hot.sampled);
    // Only the requested detail accesses are timed; the fast-forward
    // stretch is invisible to the demand counters but moved the
    // stream, so the timing outcome differs from the cold run.
    EXPECT_EQ(hot.l1Accesses, cold.l1Accesses);
    EXPECT_NE(hot.cycles, cold.cycles);
}

TEST(System, MemoryAuditAccountsComponents)
{
    System system(smallConfig(core::OrgKind::Nocstar, 16));
    system.run(500); // walk-cache line stores allocate on first use
    System::MemoryAudit audit = system.memoryAudit();
    EXPECT_GT(audit.orgArrayBytes, 0u);
    EXPECT_GT(audit.l1Bytes, 0u);
    EXPECT_GT(audit.pageTableBytes, 0u);
    EXPECT_GT(audit.cacheModelBytes, 0u);
    EXPECT_GT(audit.fabricBytes, 0u);
    EXPECT_EQ(audit.checkpointBytes, 0u);
    EXPECT_EQ(audit.total(),
              audit.orgArrayBytes + audit.l1Bytes +
                  audit.pageTableBytes + audit.cacheModelBytes +
                  audit.fabricBytes + audit.checkpointBytes);

    // The private organization has no fabric to account.
    System private_system(smallConfig(core::OrgKind::Private, 16));
    EXPECT_EQ(private_system.memoryAudit().fabricBytes, 0u);
}
