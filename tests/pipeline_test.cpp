/**
 * @file
 * End-to-end pipeline tests on the miniature test workload: the
 * pipeline.h kernels, and the Experiment session that chains them.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "src/core/experiment.h"
#include "src/support/serialize.h"
#include "src/support/stats.h"
#include "src/workloads/registry.h"
#include "src/workloads/test_workload.h"

namespace bp {
namespace {

std::unique_ptr<Workload>
smallWorkload(unsigned threads = 2, unsigned regions = 13,
              unsigned phases = 3, double wobble = 0.0)
{
    WorkloadParams params;
    params.threads = threads;
    TestWorkloadSpec spec;
    spec.regions = regions;
    spec.phases = phases;
    spec.elemsPerRegion = 128;
    spec.footprintLines = 256;
    spec.wobble = wobble;
    return makeTestWorkload(params, spec);
}

TEST(PipelineTest, ProfileProducesOneProfilePerRegion)
{
    const auto wl = smallWorkload();
    const auto profiles = profileWorkload(*wl, ProfilingConfig{});
    ASSERT_EQ(profiles.size(), wl->regionCount());
    for (unsigned r = 0; r < profiles.size(); ++r) {
        EXPECT_EQ(profiles[r].regionIndex, r);
        EXPECT_GT(profiles[r].instructions(), 0u);
        EXPECT_EQ(profiles[r].threads.size(), wl->threadCount());
    }
}

TEST(PipelineTest, AnalysisFindsThePhaseStructure)
{
    const auto wl = smallWorkload(2, 16, 3);
    const auto analysis = Experiment(*wl).analysis();
    // 3 phases + 1 init region: the clustering must find a compact
    // representation, far fewer points than regions.
    EXPECT_GE(analysis.points.size(), 3u);
    EXPECT_LE(analysis.points.size(), 8u);
    EXPECT_EQ(analysis.numRegions(), 16u);
    // Every region maps to a point of its own cluster.
    for (size_t i = 0; i < analysis.regionToPoint.size(); ++i)
        ASSERT_LT(analysis.regionToPoint[i], analysis.points.size());
}

TEST(PipelineTest, MultipliersReconstructTotalInstructions)
{
    const auto wl = smallWorkload(2, 19, 3, 0.25);
    const auto analysis = Experiment(*wl).analysis();
    double reconstructed = 0.0;
    for (const auto &pt : analysis.points)
        reconstructed += pt.multiplier *
            static_cast<double>(pt.instructions);
    EXPECT_NEAR(reconstructed,
                static_cast<double>(analysis.totalInstructions()),
                1e-6 * static_cast<double>(analysis.totalInstructions()));
}

TEST(PipelineTest, PerfectWarmupReconstructionIsAccurate)
{
    const auto wl = smallWorkload(2, 25, 3);
    const auto machine = MachineConfig::withCores(2);
    Experiment experiment(*wl);
    const auto &analysis = experiment.analysis();
    const auto &reference = experiment.reference(machine);
    const auto stats = perfectWarmupStats(analysis, reference);
    const auto estimate = reconstruct(analysis, stats);
    EXPECT_LT(percentAbsError(estimate.totalCycles,
                              reference.totalCycles()),
              6.0);
}

TEST(PipelineTest, MruWarmupCloseToReference)
{
    const auto wl = smallWorkload(2, 25, 3);
    const auto machine = MachineConfig::withCores(2);
    Experiment experiment(*wl);
    const auto &reference = experiment.reference(machine);
    const auto &estimate =
        experiment.estimate(machine, WarmupPolicy::MruReplay);
    EXPECT_LT(percentAbsError(estimate.totalCycles,
                              reference.totalCycles()),
              10.0);
}

TEST(PipelineTest, ColdWarmupIsWorseThanMru)
{
    const auto wl = smallWorkload(2, 25, 3);
    const auto machine = MachineConfig::withCores(2);
    Experiment experiment(*wl);
    const auto &reference = experiment.reference(machine);
    const auto &mru = experiment.estimate(machine, WarmupPolicy::MruReplay);
    const auto &cold = experiment.estimate(machine, WarmupPolicy::Cold);
    const double mru_err =
        percentAbsError(mru.totalCycles, reference.totalCycles());
    const double cold_err =
        percentAbsError(cold.totalCycles, reference.totalCycles());
    EXPECT_LT(mru_err, cold_err);
}

TEST(PipelineTest, SnapshotsAlignWithRequestedRegions)
{
    const auto wl = smallWorkload(2, 10, 3);
    const std::vector<uint32_t> regions{0, 4, 9};
    const auto snaps = captureMruSnapshots(*wl, regions, 4096);
    ASSERT_EQ(snaps.size(), 3u);
    // Region 0 starts cold: empty snapshot.
    for (const auto &core_lines : snaps[0])
        EXPECT_TRUE(core_lines.empty());
    // Later regions have accumulated state.
    EXPECT_FALSE(snaps[1][0].empty());
    EXPECT_FALSE(snaps[2][0].empty());
    // More history cannot shrink below the earlier snapshot (capacity
    // is far larger than the footprint here).
    EXPECT_GE(snaps[2][0].size(), snaps[1][0].size());
}

/**
 * Hand-built workload whose coherence traffic crosses the 32-thread
 * boundary: thread `writer` stores to lines that other threads read.
 */
class WideWorkload : public Workload
{
  public:
    explicit WideWorkload(unsigned threads)
        : Workload("wide-test", makeParams(threads))
    {
    }

    unsigned regionCount() const override { return 3; }

  private:
    RegionTrace
    generate(unsigned index) const override
    {
        const unsigned threads = threadCount();
        RegionTrace trace(index, threads);
        for (unsigned t = 0; t < threads; ++t) {
            // Every thread touches its own private line...
            trace.thread(t).push_back(
                MicroOp::load(1, (0x1000u + t) * kLineBytes));
            // ...and reads one shared line.
            trace.thread(t).push_back(
                MicroOp::load(2, 0x9000u * kLineBytes));
        }
        // In region 1, the last thread (index >= 32 when wide) writes
        // the shared line, invalidating every other reader's copy.
        if (index == 1) {
            trace.thread(threads - 1).push_back(
                MicroOp::store(3, 0x9000u * kLineBytes));
        }
        return trace;
    }

  private:
    static WorkloadParams
    makeParams(unsigned threads)
    {
        WorkloadParams params;
        params.threads = threads;
        return params;
    }
};

TEST(PipelineTest, SnapshotCaptureHandlesMoreThan32Threads)
{
    // Thread 39's store must invalidate the shared line in threads
    // 0..38's trackers; with the old 32-bit holder mask, `1u << 39`
    // was undefined behaviour and (on x86) aliased thread 7.
    const unsigned threads = 40;
    const WideWorkload workload(threads);
    const uint64_t shared_line = lineOf(0x9000u * kLineBytes);

    const auto snaps = captureMruSnapshots(workload, {2}, 4096);
    ASSERT_EQ(snaps.size(), 1u);
    ASSERT_EQ(snaps[0].size(), threads);
    for (unsigned t = 0; t < threads; ++t) {
        bool has_private = false;
        bool has_shared = false;
        for (const MruEntry &entry : snaps[0][t]) {
            has_private |= entry.line == lineOf((0x1000u + t) * kLineBytes);
            has_shared |= entry.line == shared_line;
        }
        // Private lines are never invalidated.
        EXPECT_TRUE(has_private) << "thread " << t;
        // Only the writer (last thread) retains the shared line: its
        // region-1 store invalidated every other reader's copy, and
        // the snapshot is taken at entry to region 2.
        if (t == threads - 1) {
            EXPECT_TRUE(has_shared) << "writer thread";
        } else {
            EXPECT_FALSE(has_shared) << "thread " << t;
        }
    }
}

TEST(PipelineTest, ThreadCountBeyondHolderMaskIsRejected)
{
    // The holder CoreSets cover kMaxCores threads; workloads beyond
    // that must refuse loudly instead of corrupting capture state.
    EXPECT_DEATH({ const WideWorkload workload(1025); }, "\\[1, 1024\\]");
}

TEST(PipelineTest, FullPipelineBeyond32Threads)
{
    // The many-core scenario the widened directory opens: a workload
    // above the old 32-core simulation ceiling runs the complete
    // profile -> analyze -> snapshot -> simulate -> reconstruct chain,
    // and the barrierpoint estimate tracks the full reference run.
    const unsigned threads = 48;
    const auto wl = smallWorkload(threads, 13, 3);
    const auto machine = MachineConfig::withCores(threads);
    ASSERT_EQ(machine.mem.numSockets(), 6u);

    Experiment experiment(*wl);
    const auto &profiles = experiment.profiles();
    ASSERT_EQ(profiles.size(), wl->regionCount());
    for (const auto &profile : profiles)
        EXPECT_EQ(profile.threads.size(), threads);

    const auto &snapshots = experiment.snapshots(machine);
    ASSERT_EQ(snapshots.size(), experiment.analysis().points.size());
    for (const auto &per_core : snapshots)
        EXPECT_EQ(per_core.size(), threads);
    const auto &estimate = experiment.estimate(machine);
    const auto &reference = experiment.reference(machine);
    EXPECT_LT(percentAbsError(estimate.totalCycles,
                              reference.totalCycles()),
              10.0);
}

TEST(PipelineTest, AnalyzeProfilesAllowsSignatureSweeps)
{
    const auto wl = smallWorkload(2, 16, 3);
    Experiment experiment(*wl);
    const auto &profiles = experiment.profiles();
    for (const SignatureKind kind :
         {SignatureKind::Bbv, SignatureKind::Ldv,
          SignatureKind::Combined}) {
        BarrierPointOptions options;
        options.signature.kind = kind;
        const auto analysis = analyzeProfiles(profiles, options);
        EXPECT_GE(analysis.points.size(), 1u);
        EXPECT_LE(analysis.points.size(), 16u);
    }
}

TEST(PipelineTest, MaxKOneSelectsSinglePoint)
{
    const auto wl = smallWorkload(2, 16, 3);
    Experiment::Config config;
    config.options.clustering.maxK = 1;
    const auto analysis = Experiment(*wl, config).analysis();
    EXPECT_EQ(analysis.points.size(), 1u);
    EXPECT_NEAR(analysis.points[0].weightFraction, 1.0, 1e-12);
}

TEST(PipelineTest, DeterministicEndToEnd)
{
    const auto wl = smallWorkload(2, 16, 3);
    const auto a = Experiment(*wl).analysis();
    const auto b = Experiment(*wl).analysis();
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].region, b.points[i].region);
        EXPECT_DOUBLE_EQ(a.points[i].multiplier, b.points[i].multiplier);
    }
}

TEST(PipelineTest, SpeedupsAreConsistent)
{
    const auto wl = smallWorkload(2, 31, 3);
    const auto analysis = Experiment(*wl).analysis();
    EXPECT_GE(analysis.serialSpeedup(), 1.0);
    EXPECT_GE(analysis.parallelSpeedup(), analysis.serialSpeedup());
    EXPECT_GE(analysis.resourceReduction(), 1.0);
}

/**
 * One barrierpoint on a machine built for it alone: the per-point
 * steps of simulateMachines() without the reset() reuse.
 */
RegionStats
freshMachinePoint(const Workload &workload, const MachineConfig &machine,
                  const BarrierPointAnalysis &analysis, size_t point,
                  const MruSnapshotSet *snapshots)
{
    MultiCoreSim sim(machine);
    const RegionTrace trace =
        workload.generateRegion(analysis.points[point].region);
    if (snapshots) {
        sim.warmupReplay((*snapshots)[point],
                         mruLlcDirtyWindow(mruCapacityLines(machine),
                                           workload.threadCount()));
        sim.trainPredictors(trace);
    }
    return sim.simulateRegion(trace);
}

TEST(PipelineTest, ReusedMachineMatchesFreshMachinePerPoint)
{
    // simulateMachines runs every point on one reset() machine per
    // executor; each point must see exactly a new machine. Sixteen
    // threads on 8-core sockets exercise the home map as well.
    const auto wl = smallWorkload(16, 25, 3);
    const auto machine = MachineConfig::withCores(16);
    Experiment experiment(*wl);
    const auto &analysis = experiment.analysis();
    ASSERT_GE(analysis.points.size(), 3u);
    const auto &snapshots = experiment.snapshots(machine);
    const auto &reused =
        experiment.simulate(machine, WarmupPolicy::MruReplay).stats;
    const auto &cold = experiment.simulate(machine, WarmupPolicy::Cold).stats;
    ASSERT_EQ(reused.size(), analysis.points.size());
    const auto bytes = [](const RegionStats &stats) {
        Serializer s;
        stats.serialize(s);
        return s.buffer();
    };
    for (size_t j = 0; j < analysis.points.size(); ++j) {
        EXPECT_EQ(bytes(reused[j]),
                  bytes(freshMachinePoint(*wl, machine, analysis, j,
                                          &snapshots)))
            << "point " << j;
        EXPECT_EQ(bytes(cold[j]),
                  bytes(freshMachinePoint(*wl, machine, analysis, j,
                                          nullptr)))
            << "point " << j;
    }
}

TEST(PipelineDeathTest, MismatchedSnapshotCountIsCleanlyFatal)
{
    // A snapshot set sized for a different analysis (e.g. a stale
    // capture) must be rejected at the seed site as a user error —
    // fatal(), exit 1 — not run into out-of-range indexing.
    const auto wl = smallWorkload(2, 16, 3);
    const auto machine = MachineConfig::withCores(2);
    Experiment experiment(*wl);
    MruSnapshotSet wrong(experiment.analysis().points.size() + 2);
    EXPECT_EXIT(experiment.seedSnapshots(machine, wrong),
                ::testing::ExitedWithCode(1),
                "snapshot count differs from the barrierpoint count");
}

std::vector<uint8_t>
snapshotBytes(const MruSnapshotSet &set)
{
    Serializer s;
    for (const auto &per_core : set) {
        s.size(per_core.size());
        for (const auto &entries : per_core) {
            s.size(entries.size());
            for (const MruEntry &entry : entries) {
                s.u64(entry.line);
                s.boolean(entry.written);
                s.boolean(entry.llcDirty);
            }
        }
    }
    return s.buffer();
}

/**
 * The exactness gate of capture sharing, on every registered workload
 * at 8 threads. One capture serves 8-core and 32-core: windowed for
 * each, it is byte for byte that machine's own captureAnalysisSnapshots.
 * A machine whose L3 is too small for the trackers never to evict gets
 * a capture of its own, persisted under its capacity.
 */
TEST(PipelineTest, SharedCaptureEqualsEachMachinesOwnCapture)
{
    const MachineConfig eight = MachineConfig::byName("8-core");
    const MachineConfig wide = MachineConfig::byName("32-core");
    MachineConfig tiny = eight;
    tiny.name = "8-core-tiny-l3";
    tiny.mem.l3.sizeBytes = 64 * 1024;
    ASSERT_EQ(mruPrivateLines(tiny), mruPrivateLines(eight));
    ASSERT_LT(mruCapacityLines(eight), mruCapacityLines(wide));

    uint64_t window_dropped = 0;
    for (const std::string &name : workloadNames()) {
        SCOPED_TRACE(name);
        WorkloadSpec spec;
        spec.name = name;
        spec.threads = 8;
        const auto workload = spec.instantiate();
        const std::string dir =
            ::testing::TempDir() + "shared_capture_" + name;
        std::filesystem::remove_all(dir);
        Experiment::Config config;
        config.artifactDir = dir;
        Experiment experiment(spec, config, ExecutionContext(4));
        const BarrierPointAnalysis &analysis = experiment.analysis();

        // The evicting capture first: it must serve no larger machine.
        const MruSnapshotSet &small = experiment.snapshots(tiny);
        const MruSnapshotSet &shared = experiment.snapshots(wide);
        EXPECT_NE(&small, &shared) << "an evicting capture was shared";
        EXPECT_EQ(&experiment.snapshots(eight), &shared);
        for (const MachineConfig *machine : {&eight, &wide}) {
            MruSnapshotSet view = shared;
            applyLlcDirtyWindow(view,
                                mruLlcDirtyWindow(mruCapacityLines(*machine),
                                                  spec.threads));
            const MruSnapshotSet own =
                captureAnalysisSnapshots(*workload, *machine, analysis);
            EXPECT_EQ(snapshotBytes(view), snapshotBytes(own))
                << machine->name;
            if (machine == &eight) {
                for (size_t j = 0; j < own.size(); ++j)
                    for (size_t c = 0; c < own[j].size(); ++c)
                        for (size_t e = 0; e < own[j][c].size(); ++e)
                            window_dropped += shared[j][c][e].llcDirty &&
                                              !own[j][c][e].llcDirty;
                // Replaying the shared capture within the window is
                // replaying the machine's own windowed capture.
                const auto direct = simulateMachines(
                    *workload, analysis, {{machine, &own}},
                    experiment.execution());
                const auto &stats = experiment.simulate(*machine).stats;
                ASSERT_EQ(stats.size(), direct[0].size());
                for (size_t j = 0; j < stats.size(); ++j) {
                    Serializer a, b;
                    stats[j].serialize(a);
                    direct[0][j].serialize(b);
                    EXPECT_EQ(a.buffer(), b.buffer()) << "point " << j;
                }
            }
        }

        MruSnapshotSet view = small;
        applyLlcDirtyWindow(
            view, mruLlcDirtyWindow(mruCapacityLines(tiny), spec.threads));
        EXPECT_EQ(snapshotBytes(view),
                  snapshotBytes(captureAnalysisSnapshots(*workload, tiny,
                                                         analysis)));

        // Two snapshot artifacts: the shared one, and the evicting
        // capture named by its capacity.
        unsigned files = 0;
        for (const auto &entry : std::filesystem::directory_iterator(dir)) {
            const std::string path = entry.path().string();
            if (path.find(".snapshots.bp") == std::string::npos)
                continue;
            ++files;
            const SnapshotArtifact artifact = loadSnapshotArtifact(path);
            const bool named_by_capacity =
                path.find("-c" + std::to_string(mruCapacityLines(tiny)) +
                          ".snapshots.bp") != std::string::npos;
            EXPECT_EQ(artifact.evicted, named_by_capacity) << path;
            EXPECT_EQ(artifact.serves(mruCapacityLines(eight)),
                      !named_by_capacity)
                << path;
        }
        EXPECT_EQ(files, 2u);
        std::filesystem::remove_all(dir);
    }
    // The windows did real work: the test compares more than raw
    // lists that happen to fit every window.
    EXPECT_GT(window_dropped, 0u);
}

} // namespace
} // namespace bp
