/**
 * @file
 * Tests for artifact persistence: struct-level round trips and the
 * profile-once / simulate-many equivalence guarantee — an Estimate
 * reconstructed from reloaded artifacts is bit-identical to the
 * all-in-memory pipeline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/core/artifacts.h"
#include "src/core/barrierpoint.h"
#include "src/support/serialize.h"
#include "src/workloads/test_workload.h"

namespace bp {
namespace {

class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

WorkloadSpec
smallSpec()
{
    WorkloadSpec spec;
    spec.name = "npb-is";
    spec.threads = 2;
    spec.scale = 0.05;
    spec.seed = 99;
    return spec;
}

void
expectProfilesEqual(const RegionProfile &a, const RegionProfile &b)
{
    EXPECT_EQ(a.regionIndex, b.regionIndex);
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (size_t t = 0; t < a.threads.size(); ++t) {
        const ThreadProfile &ta = a.threads[t];
        const ThreadProfile &tb = b.threads[t];
        EXPECT_EQ(ta.bbv, tb.bbv);
        ASSERT_EQ(ta.ldv.numBuckets(), tb.ldv.numBuckets());
        for (unsigned bk = 0; bk < ta.ldv.numBuckets(); ++bk)
            EXPECT_EQ(ta.ldv.bucket(bk), tb.ldv.bucket(bk));
        EXPECT_EQ(ta.instructions, tb.instructions);
        EXPECT_EQ(ta.memOps, tb.memOps);
        EXPECT_EQ(ta.coldAccesses, tb.coldAccesses);
    }
}

/** Bitwise double equality (doubles must survive disk exactly). */
void
expectBitEqual(double a, double b)
{
    EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
        << a << " vs " << b;
}

TEST(ArtifactsTest, ProfileArtifactRoundTrip)
{
    const WorkloadSpec spec = smallSpec();

    ProfileArtifact artifact;
    artifact.workload = spec;
    artifact.profiles = Experiment(spec).profiles();

    TempFile file("artifact_profile.bp");
    saveArtifact(file.path(), artifact);
    const ProfileArtifact loaded = loadProfileArtifact(file.path());

    EXPECT_EQ(loaded.workload, spec);
    ASSERT_EQ(loaded.profiles.size(), artifact.profiles.size());
    for (size_t r = 0; r < loaded.profiles.size(); ++r)
        expectProfilesEqual(artifact.profiles[r], loaded.profiles[r]);
}

TEST(ArtifactsTest, AnalysisArtifactRoundTrip)
{
    const WorkloadSpec spec = smallSpec();

    AnalysisArtifact artifact;
    artifact.workload = spec;
    artifact.optionsHash = optionsHash(BarrierPointOptions{});
    artifact.analysis = Experiment(spec).analysis();

    TempFile file("artifact_analysis.bp");
    saveArtifact(file.path(), artifact);
    const AnalysisArtifact loaded = loadAnalysisArtifact(file.path());

    EXPECT_EQ(loaded.workload, spec);
    EXPECT_EQ(loaded.optionsHash, artifact.optionsHash);
    const BarrierPointAnalysis &a = artifact.analysis;
    const BarrierPointAnalysis &b = loaded.analysis;
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t j = 0; j < a.points.size(); ++j) {
        EXPECT_EQ(a.points[j].region, b.points[j].region);
        EXPECT_EQ(a.points[j].cluster, b.points[j].cluster);
        expectBitEqual(a.points[j].multiplier, b.points[j].multiplier);
        expectBitEqual(a.points[j].weightFraction,
                       b.points[j].weightFraction);
        EXPECT_EQ(a.points[j].instructions, b.points[j].instructions);
        EXPECT_EQ(a.points[j].significant, b.points[j].significant);
    }
    EXPECT_EQ(a.regionToPoint, b.regionToPoint);
    EXPECT_EQ(a.regionInstructions, b.regionInstructions);
    ASSERT_EQ(a.bicByK.size(), b.bicByK.size());
    for (size_t k = 0; k < a.bicByK.size(); ++k)
        expectBitEqual(a.bicByK[k], b.bicByK[k]);
    EXPECT_EQ(a.chosenK, b.chosenK);
}

TEST(ArtifactsTest, SnapshotArtifactRoundTrip)
{
    WorkloadParams params;
    params.threads = 2;
    TestWorkloadSpec spec;
    spec.regions = 8;
    const auto workload = makeTestWorkload(params, spec);

    SnapshotArtifact artifact;
    artifact.workload.name = "test";
    artifact.workload.threads = 2;
    artifact.capacityLines = 4096;
    artifact.privateLines = 512;
    artifact.regions = {2, 5, 7};
    artifact.snapshots = captureMruSnapshots(*workload, artifact.regions,
                                             artifact.capacityLines,
                                             artifact.privateLines);

    TempFile file("artifact_snapshots.bp");
    saveArtifact(file.path(), artifact);
    const SnapshotArtifact loaded = loadSnapshotArtifact(file.path());

    EXPECT_EQ(loaded.capacityLines, artifact.capacityLines);
    EXPECT_EQ(loaded.privateLines, artifact.privateLines);
    EXPECT_EQ(loaded.regions, artifact.regions);
    ASSERT_EQ(loaded.snapshots.size(), artifact.snapshots.size());
    for (size_t i = 0; i < loaded.snapshots.size(); ++i) {
        ASSERT_EQ(loaded.snapshots[i].size(), artifact.snapshots[i].size());
        for (size_t c = 0; c < loaded.snapshots[i].size(); ++c) {
            const auto &ea = artifact.snapshots[i][c];
            const auto &eb = loaded.snapshots[i][c];
            ASSERT_EQ(ea.size(), eb.size());
            for (size_t e = 0; e < ea.size(); ++e) {
                EXPECT_EQ(ea[e].line, eb[e].line);
                EXPECT_EQ(ea[e].written, eb[e].written);
                EXPECT_EQ(ea[e].llcDirty, eb[e].llcDirty);
            }
        }
    }
}

/** @return the first non-empty per-core list of a snapshot set. */
std::vector<MruEntry> &
firstNonEmptyList(MruSnapshotSet &snapshots)
{
    for (auto &per_core : snapshots) {
        for (auto &list : per_core) {
            if (!list.empty())
                return list;
        }
    }
    ADD_FAILURE() << "every per-core list is empty";
    return snapshots.at(0).at(0);
}

/**
 * A checksum says nothing about meaning. Each forged set below is
 * re-checksummed by saveArtifact, so only the loader's meaning checks
 * stand between it and a warmup: no capture of the workload could
 * have produced it, and it must be rejected.
 */
TEST(ArtifactsTest, ForgedSnapshotSetsAreRejected)
{
    const WorkloadSpec spec = smallSpec();
    const MachineConfig machine = MachineConfig::withCores(spec.threads);
    Experiment experiment(spec);
    SnapshotArtifact valid;
    valid.workload = spec;
    valid.capacityLines = mruCapacityLines(machine);
    valid.privateLines = mruPrivateLines(machine);
    valid.regions = experiment.analysis().pointRegions();
    valid.snapshots = experiment.snapshots(machine);
    ASSERT_FALSE(firstNonEmptyList(valid.snapshots).empty());

    TempFile file("forged_snapshots.bp");
    saveArtifact(file.path(), valid);
    EXPECT_NO_THROW(loadSnapshotArtifact(file.path()));

    using Forgery = void (*)(SnapshotArtifact &);
    const std::pair<const char *, Forgery> forgeries[] = {
        {"a per-core list too many",
         [](SnapshotArtifact &a) { a.snapshots[0].emplace_back(); }},
        {"a per-core list too few",
         [](SnapshotArtifact &a) { a.snapshots.back().pop_back(); }},
        {"a list longer than the capture capacity",
         [](SnapshotArtifact &a) {
             a.capacityLines = firstNonEmptyList(a.snapshots).size() - 1;
         }},
        {"a line listed twice by one core",
         [](SnapshotArtifact &a) {
             auto &list = firstNonEmptyList(a.snapshots);
             list.push_back(list.front());
         }},
        {"an entry both written and LLC-dirty",
         [](SnapshotArtifact &a) {
             MruEntry &entry = firstNonEmptyList(a.snapshots).front();
             entry.written = entry.llcDirty = true;
         }},
        {"a snapshot without its region",
         [](SnapshotArtifact &a) { a.snapshots.pop_back(); }},
    };
    for (const auto &[what, forge] : forgeries) {
        SnapshotArtifact forged = valid;
        forge(forged);
        saveArtifact(file.path(), forged);
        EXPECT_THROW(loadSnapshotArtifact(file.path()), SerializeError)
            << what;
    }
}

/**
 * The tracker facts decide which machines a capture serves, so a
 * forged pair could hand one machine's warmup to another. Each forgery
 * below is consistent in every other respect; the loader must reject
 * it for the stated reason.
 */
TEST(ArtifactsTest, ForgedCaptureFactsAreRejected)
{
    const WorkloadSpec spec = smallSpec();
    const auto workload = spec.instantiate();
    const MachineConfig machine = MachineConfig::withCores(spec.threads);
    SnapshotArtifact valid;
    valid.workload = spec;
    valid.capacityLines = mruCapacityLines(machine);
    valid.privateLines = mruPrivateLines(machine);
    valid.regions = Experiment(spec).analysis().pointRegions();
    MruCapture capture = captureMru(*workload, valid.regions,
                                    valid.capacityLines, valid.privateLines);
    ASSERT_FALSE(capture.evicted);
    ASSERT_LT(capture.highWaterLines, valid.capacityLines);
    valid.snapshots = std::move(capture.snapshots);
    valid.highWaterLines = capture.highWaterLines;
    valid.evicted = false;

    size_t longest = 0;
    for (const auto &per_core : valid.snapshots)
        for (const auto &list : per_core)
            longest = std::max(longest, list.size());
    ASSERT_GT(longest, 0u);

    TempFile file("forged_capture_facts.bp");
    saveArtifact(file.path(), valid);
    const SnapshotArtifact loaded = loadSnapshotArtifact(file.path());
    EXPECT_EQ(loaded.highWaterLines, valid.highWaterLines);
    EXPECT_FALSE(loaded.evicted);
    EXPECT_TRUE(loaded.serves(valid.highWaterLines));

    using Forgery = void (*)(SnapshotArtifact &, size_t longest);
    const std::pair<const char *, Forgery> forgeries[] = {
        {"per-core list longer than the capture's high-water mark",
         [](SnapshotArtifact &a, size_t longest) {
             a.highWaterLines = longest - 1;
         }},
        {"high-water mark above the capture capacity",
         [](SnapshotArtifact &a, size_t) {
             a.highWaterLines = a.capacityLines + 1;
         }},
    };
    const auto expectRejected = [&](const char *error) {
        try {
            loadSnapshotArtifact(file.path());
            ADD_FAILURE() << "accepted: " << error;
        } catch (const SerializeError &e) {
            EXPECT_NE(std::string(e.what()).find(error), std::string::npos)
                << e.what();
        }
    };
    for (const auto &[error, forge] : forgeries) {
        SnapshotArtifact forged = valid;
        forge(forged, longest);
        saveArtifact(file.path(), forged);
        expectRejected(error);
    }

    // An evicting capture serves its own capacity alone, whatever mark
    // it holds in memory; saveArtifact writes the capacity as its mark.
    SnapshotArtifact evicting = valid;
    evicting.evicted = true;
    saveArtifact(file.path(), evicting);
    const SnapshotArtifact reloaded = loadSnapshotArtifact(file.path());
    EXPECT_EQ(reloaded.highWaterLines, valid.capacityLines);
    EXPECT_TRUE(reloaded.serves(valid.capacityLines));
    EXPECT_FALSE(reloaded.serves(valid.highWaterLines));

    // So a reusable-looking mark (below the capacity) beside the
    // evicted flag can only be forged in the bytes: set the flag, the
    // payload's last byte, on the valid file and re-frame it. Eviction
    // happens only at a full list.
    const auto kind = static_cast<uint32_t>(ArtifactKind::Snapshots);
    saveArtifact(file.path(), valid);
    Deserializer payload = readArtifactFile(file.path(), kind);
    Serializer forged;
    while (payload.remaining() > 1)
        forged.u8(payload.u8());
    ASSERT_FALSE(payload.boolean());
    forged.boolean(true);
    writeArtifactFile(file.path(), kind, forged);
    expectRejected("capture evicted without filling its capacity");
}

TEST(ArtifactsTest, RunResultArtifactRoundTrip)
{
    const WorkloadSpec spec = smallSpec();
    const auto workload = spec.instantiate();
    const MachineConfig machine = MachineConfig::withCores(2);

    RunResultArtifact artifact;
    artifact.workload = spec;
    artifact.machine = machine.name;
    artifact.flavor = "reference";
    artifact.result = runReference(*workload, machine);

    TempFile file("artifact_runresult.bp");
    saveArtifact(file.path(), artifact);
    const RunResultArtifact loaded = loadRunResultArtifact(file.path());

    EXPECT_EQ(loaded.workload, spec);
    EXPECT_EQ(loaded.machine, machine.name);
    EXPECT_EQ(loaded.flavor, "reference");
    ASSERT_EQ(loaded.result.regions.size(), artifact.result.regions.size());
    for (size_t r = 0; r < loaded.result.regions.size(); ++r) {
        const RegionStats &a = artifact.result.regions[r];
        const RegionStats &b = loaded.result.regions[r];
        EXPECT_EQ(a.regionIndex, b.regionIndex);
        EXPECT_EQ(a.instructions, b.instructions);
        expectBitEqual(a.cycles, b.cycles);
        expectBitEqual(a.startCycle, b.startCycle);
        EXPECT_EQ(a.mispredicts, b.mispredicts);
        EXPECT_EQ(a.mem.accesses, b.mem.accesses);
        EXPECT_EQ(a.mem.dramReads, b.mem.dramReads);
        EXPECT_EQ(a.mem.dramWrites, b.mem.dramWrites);
        EXPECT_EQ(a.mem.llcMisses, b.mem.llcMisses);
    }
}

TEST(ArtifactsTest, MismatchedKindIsRejected)
{
    const WorkloadSpec spec = smallSpec();
    AnalysisArtifact artifact;
    artifact.workload = spec;
    artifact.analysis = Experiment(spec).analysis();
    TempFile file("artifact_kind_mismatch.bp");
    saveArtifact(file.path(), artifact);
    EXPECT_THROW(loadProfileArtifact(file.path()), SerializeError);
}

/**
 * A checksum-valid artifact with an out-of-range index is rejected on
 * load: saveArtifact() writes a correct checksum, so only the
 * semantic check stands between a forged file and a silently wrong
 * estimate.
 */
TEST(ArtifactsTest, ForgedAnalysisIndicesAreRejected)
{
    const WorkloadSpec spec = smallSpec();
    AnalysisArtifact valid;
    valid.workload = spec;
    valid.analysis = Experiment(spec).analysis();
    ASSERT_FALSE(valid.analysis.points.empty());

    const auto expectRejected = [&](const AnalysisArtifact &artifact) {
        TempFile file("artifact_forged_analysis.bp");
        saveArtifact(file.path(), artifact);
        EXPECT_THROW(loadAnalysisArtifact(file.path()), SerializeError);
    };

    AnalysisArtifact forged = valid;
    forged.analysis.points[0].region = 1000000000u;
    expectRejected(forged);

    forged = valid;
    forged.analysis.regionToPoint[0] =
        static_cast<unsigned>(forged.analysis.points.size());
    expectRejected(forged);

    forged = valid;
    forged.analysis.regionToPoint.pop_back();
    expectRejected(forged);
}

/**
 * The artifact chain profile -> save -> load -> analyze -> save ->
 * load -> simulate -> save -> load -> reconstruct, run on the
 * pipeline.h kernels, produces an Estimate bit-identical to an
 * in-memory Experiment on the same workload and machine.
 */
TEST(ArtifactsTest, PersistedChainIsBitIdenticalToInMemoryPipeline)
{
    const WorkloadSpec spec = smallSpec();
    const MachineConfig machine = MachineConfig::withCores(spec.threads);

    // In-memory path.
    Experiment experiment(spec);
    const Estimate &direct = experiment.estimate(machine);

    // Artifact path: every stage round-trips through disk and
    // re-instantiates its workload from the embedded spec.
    TempFile profile_file("chain_profile.bp");
    TempFile analysis_file("chain_analysis.bp");
    TempFile result_file("chain_result.bp");
    {
        ProfileArtifact artifact;
        artifact.workload = spec;
        artifact.profiles =
            profileWorkload(*spec.instantiate(), ProfilingConfig{});
        saveArtifact(profile_file.path(), artifact);
    }
    {
        const ProfileArtifact profile =
            loadProfileArtifact(profile_file.path());
        AnalysisArtifact artifact;
        artifact.workload = profile.workload;
        artifact.analysis = analyzeProfiles(profile.profiles);
        saveArtifact(analysis_file.path(), artifact);
    }
    {
        const AnalysisArtifact analysis =
            loadAnalysisArtifact(analysis_file.path());
        const auto workload = analysis.workload.instantiate();
        RunResultArtifact artifact;
        artifact.workload = analysis.workload;
        artifact.machine = machine.name;
        artifact.flavor = "barrierpoints-mru";
        const MruSnapshotSet snapshots =
            captureAnalysisSnapshots(*workload, machine, analysis.analysis);
        artifact.result.regions = std::move(simulateMachines(
            *workload, analysis.analysis, {{&machine, &snapshots}})[0]);
        saveArtifact(result_file.path(), artifact);
    }
    const AnalysisArtifact analysis =
        loadAnalysisArtifact(analysis_file.path());
    const RunResultArtifact result =
        loadRunResultArtifact(result_file.path());
    const Estimate chained =
        reconstruct(analysis.analysis, result.result.regions);

    expectBitEqual(chained.totalCycles, direct.totalCycles);
    expectBitEqual(chained.totalInstructions, direct.totalInstructions);
    expectBitEqual(chained.dramAccesses, direct.dramAccesses);
    expectBitEqual(chained.llcMisses, direct.llcMisses);
}

/**
 * Snapshots captured by the kernel, persisted and seeded into a fresh
 * session must reproduce the session's own capture path.
 */
TEST(ArtifactsTest, PersistedSnapshotsReproduceInternalCapture)
{
    const WorkloadSpec spec = smallSpec();
    const auto workload = spec.instantiate();
    const MachineConfig machine = MachineConfig::withCores(spec.threads);
    Experiment experiment(spec);
    const BarrierPointAnalysis &analysis = experiment.analysis();
    const auto &internal =
        experiment.simulate(machine, WarmupPolicy::MruReplay).stats;

    SnapshotArtifact artifact;
    artifact.workload = spec;
    artifact.capacityLines = mruCapacityLines(machine);
    artifact.privateLines = mruPrivateLines(machine);
    for (const BarrierPoint &point : analysis.points)
        artifact.regions.push_back(point.region);
    artifact.snapshots =
        captureAnalysisSnapshots(*workload, machine, analysis);
    TempFile file("chain_snapshots.bp");
    saveArtifact(file.path(), artifact);
    const SnapshotArtifact loaded = loadSnapshotArtifact(file.path());

    Experiment replay(spec);
    replay.seedSnapshots(machine, loaded.snapshots);
    const auto &replayed = replay.simulate(machine).stats;
    ASSERT_EQ(replayed.size(), internal.size());
    for (size_t j = 0; j < replayed.size(); ++j) {
        expectBitEqual(replayed[j].cycles, internal[j].cycles);
        EXPECT_EQ(replayed[j].instructions, internal[j].instructions);
        EXPECT_EQ(replayed[j].mem.dramReads, internal[j].mem.dramReads);
    }
}

} // namespace
} // namespace bp
