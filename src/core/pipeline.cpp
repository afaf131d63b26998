#include "src/core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <unordered_map>

#include "src/profile/mru_tracker.h"
#include "src/support/core_set.h"
#include "src/support/flat_map.h"
#include "src/support/logging.h"
#include "src/support/thread_pool.h"

namespace bp {

const char *
warmupPolicyName(WarmupPolicy policy)
{
    return policy == WarmupPolicy::Cold ? "cold" : "mru";
}

std::vector<RegionProfile>
profileWorkload(const Workload &workload, const ProfilingConfig &profiling,
                const ExecutionContext &exec)
{
    // The batch entry point is a collecting sink over the streaming
    // core, so both paths profile identically by construction.
    struct CollectingSink : RegionProfileSink
    {
        std::vector<RegionProfile> profiles;
        void consume(RegionProfile &&profile) override
        {
            profiles.push_back(std::move(profile));
        }
    };
    CollectingSink sink;
    sink.profiles.reserve(workload.regionCount());
    profileWorkloadToSink(workload, profiling, sink, exec);
    return std::move(sink.profiles);
}

void
profileWorkloadToSink(const Workload &workload,
                      const ProfilingConfig &profiling,
                      RegionProfileSink &sink, const ExecutionContext &exec)
{
    ThreadPool &pool = exec.pool();
    const unsigned regions = workload.regionCount();
    RegionProfiler profiler(workload.threadCount(), 0, profiling);

    if (pool.threadCount() <= 1) {
        for (unsigned r = 0; r < regions; ++r)
            sink.consume(profiler.profileRegion(workload.generateRegion(r)));
        return;
    }

    // Reuse-distance state persists across regions, so regions are
    // *profiled* in order — but trace generation is pure, so up to
    // `lookahead` future traces are generated on the pool while the
    // caller profiles the current one (whose per-thread streams fan
    // out on the pool as well). The ring of slots bounds how many
    // fully generated traces are held in memory.
    const unsigned lookahead =
        std::min(regions, 2 * pool.threadCount());
    std::vector<std::unique_ptr<RegionTrace>> traces(lookahead);
    std::vector<std::future<void>> pending(lookahead);
    const auto generate = [&](unsigned region, unsigned slot) {
        pending[slot] = pool.submit([&workload, &traces, region, slot] {
            traces[slot] = std::make_unique<RegionTrace>(
                workload.generateRegion(region));
        });
    };
    try {
        for (unsigned r = 0; r < lookahead; ++r)
            generate(r, r);
        for (unsigned r = 0; r < regions; ++r) {
            const unsigned slot = r % lookahead;
            pending[slot].get();
            sink.consume(profiler.profileRegion(*traces[slot], &pool));
            traces[slot].reset();
            if (r + lookahead < regions)
                generate(r + lookahead, slot);
        }
    } catch (...) {
        // In-flight generators write into traces/pending; they must
        // finish before those go out of scope.
        for (auto &f : pending) {
            if (f.valid()) {
                try {
                    f.get();
                } catch (...) {
                }
            }
        }
        throw;
    }
}

std::vector<std::vector<double>>
projectProfiles(const std::vector<RegionProfile> &profiles,
                const SignatureConfig &signature,
                const ClusteringConfig &clustering,
                const ExecutionContext &exec)
{
    return exec.pool().parallelMap<std::vector<double>>(
        profiles.size(), [&](size_t i) {
            return projectSignature(buildSignature(profiles[i], signature),
                                    clustering.dim, clustering.seed);
        });
}

BarrierPointAnalysis
analyzeProfiles(const std::vector<RegionProfile> &profiles,
                const BarrierPointOptions &options,
                const ExecutionContext &exec)
{
    BP_ASSERT(!profiles.empty(), "no profiles to analyze");

    const auto points = projectProfiles(profiles, options.signature,
                                        options.clustering, exec);

    std::vector<uint64_t> instructions;
    std::vector<double> weights;
    instructions.reserve(profiles.size());
    weights.reserve(profiles.size());
    for (const auto &profile : profiles) {
        instructions.push_back(profile.instructions());
        weights.push_back(static_cast<double>(profile.instructions()));
    }

    const ClusteringResult clustering =
        clusterSignatures(points, weights, options.clustering, &exec.pool());
    return selectBarrierPoints(clustering, points, instructions,
                               options.significance);
}

RunResult
runReference(const Workload &workload, const MachineConfig &machine)
{
    return simulateFullRun(machine, workload.regionCount(),
                           [&](unsigned r) {
                               return workload.generateRegion(r);
                           });
}

const char *
snapshotSetError(const MruSnapshotSet &snapshots, size_t points,
                 unsigned threads, uint64_t capacity_lines,
                 uint64_t high_water_lines, bool evicted)
{
    if (high_water_lines > capacity_lines)
        return "high-water mark above the capture capacity";
    // A tracker evicts only from a full main list.
    if (evicted && high_water_lines != capacity_lines)
        return "capture evicted without filling its capacity";
    if (snapshots.size() != points)
        return "snapshot count differs from the barrierpoint count";
    FlatMap<bool> seen;
    for (const auto &per_core : snapshots) {
        if (per_core.size() != threads)
            return "per-core list count differs from the thread count";
        for (const auto &entries : per_core) {
            if (entries.size() > high_water_lines)
                return "per-core list longer than the capture's high-water "
                       "mark";
            seen.clear();
            seen.reserve(entries.size());
            for (const MruEntry &entry : entries) {
                if (!seen.insert(entry.line).second)
                    return "line repeated within a per-core list";
                if (entry.written && entry.llcDirty)
                    return "entry both written and LLC-dirty";
            }
        }
    }
    return nullptr;
}

namespace {

/**
 * The capture loop, templated on the holder-set width so the common
 * <= 64-thread case keeps an 8-byte per-line coherence record (wider
 * workloads pay only for the CoreSet capacity tier they need).
 */
template <unsigned Width>
MruCapture
captureMruWide(const Workload &workload, const std::vector<uint32_t> &regions,
               uint64_t capacity_lines, uint64_t private_lines)
{
    MruCapture capture;
    MruSnapshotSet &snapshots = capture.snapshots;
    snapshots.resize(regions.size());

    const uint32_t last =
        *std::max_element(regions.begin(), regions.end());
    const unsigned threads = workload.threadCount();

    // region -> snapshot slots wanting it, so per-region capture cost
    // does not scale with #barrierpoints x #regions.
    std::unordered_multimap<uint32_t, size_t> slots_of_region;
    slots_of_region.reserve(regions.size());
    for (size_t i = 0; i < regions.size(); ++i)
        slots_of_region.emplace(regions[i], i);

    std::vector<MruTracker> trackers;
    trackers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        trackers.emplace_back(capacity_lines, private_lines);

    // Coherence-aware capture: a write invalidates other cores'
    // retained copies; a read of another core's dirty line downgrades
    // it (its dirty data migrates to the LLC). Tracked with a holder
    // set and last-writer per line, in a flat probe table like the
    // trackers themselves (this loop is the other profiling-speed
    // path: it replays every memory access of the prefix).
    struct LineCoherence
    {
        CoreSet<Width> holders;
        int16_t writer = -1;
    };
    FlatMap<LineCoherence> coherence;

    // Unwindowed: each machine's mruLlcDirtyWindow() applies later.
    const auto snapshot_all = [&]() {
        std::vector<std::vector<MruEntry>> per_core;
        per_core.reserve(threads);
        for (const auto &tracker : trackers)
            per_core.push_back(tracker.snapshot());
        return per_core;
    };

    for (uint32_t r = 0; r <= last; ++r) {
        // Snapshot *before* region r runs: this is the state a
        // checkpoint taken at barrier r would capture.
        const auto [slot, slots_end] = slots_of_region.equal_range(r);
        if (slot != slots_end) {
            const auto state = snapshot_all();
            for (auto it = slot; it != slots_end; ++it)
                snapshots[it->second] = state;
        }
        if (r == last)
            break;
        const RegionTrace trace = workload.generateRegion(r);
        for (unsigned t = 0; t < threads; ++t) {
            for (const MicroOp &op : trace.thread(t)) {
                if (!op.isMem())
                    continue;
                const uint64_t line = lineOf(op.addr);
                const bool write = op.kind == OpKind::Store;
                const uint64_t hash = flatHash(line);
                LineCoherence &lc = *coherence.insert(line, hash).first;
                if (write) {
                    CoreSet<Width> others = lc.holders;
                    others.clear(t);
                    others.forEachSetBit([&](unsigned other) {
                        trackers[other].invalidateLine(line);
                    });
                    lc.holders = CoreSet<Width>::single(t);
                    lc.writer = static_cast<int16_t>(t);
                } else {
                    if (lc.writer >= 0 &&
                        lc.writer != static_cast<int16_t>(t)) {
                        trackers[lc.writer].downgradeLine(line);
                        lc.writer = -1;
                    }
                    lc.holders.set(t);
                }
                trackers[t].access(line, write, hash);
            }
        }
    }
    for (const MruTracker &tracker : trackers) {
        capture.highWaterLines =
            std::max(capture.highWaterLines, tracker.highWater());
        capture.evicted = capture.evicted || tracker.evicted();
    }
    return capture;
}

} // namespace

MruCapture
captureMru(const Workload &workload, const std::vector<uint32_t> &regions,
           uint64_t capacity_lines, uint64_t private_lines)
{
    BP_ASSERT(capacity_lines > 0, "MRU capacity must be positive");

    if (regions.empty())
        return MruCapture();

    const unsigned threads = workload.threadCount();
    BP_ASSERT(threads <= kMaxCores,
              "coherence holder set supports at most kMaxCores threads");
    if (threads <= 64) {
        return captureMruWide<64>(workload, regions, capacity_lines,
                                  private_lines);
    }
    if (threads <= 256) {
        return captureMruWide<256>(workload, regions, capacity_lines,
                                   private_lines);
    }
    return captureMruWide<kMaxCores>(workload, regions, capacity_lines,
                                     private_lines);
}

void
applyLlcDirtyWindow(MruSnapshotSet &snapshots, uint64_t window)
{
    for (auto &per_core : snapshots)
        for (auto &entries : per_core)
            applyLlcDirtyWindow(entries, window);
}

MruSnapshotSet
captureMruSnapshots(const Workload &workload,
                    const std::vector<uint32_t> &regions,
                    uint64_t capacity_lines, uint64_t private_lines)
{
    MruCapture capture =
        captureMru(workload, regions, capacity_lines, private_lines);
    applyLlcDirtyWindow(capture.snapshots,
                        mruLlcDirtyWindow(capacity_lines,
                                          workload.threadCount()));
    return std::move(capture.snapshots);
}

MruSnapshotSet
captureAnalysisSnapshots(const Workload &workload,
                         const MachineConfig &machine,
                         const BarrierPointAnalysis &analysis)
{
    return captureMruSnapshots(workload, analysis.pointRegions(),
                               mruCapacityLines(machine),
                               mruPrivateLines(machine));
}

namespace {

/** Simulate one barrierpoint on @p sim, which must be cold. */
RegionStats
runBarrierPoint(MultiCoreSim &sim, const Workload &workload,
                const BarrierPointAnalysis &analysis, size_t point_index,
                const MachineJob &job)
{
    const RegionTrace trace =
        workload.generateRegion(analysis.points[point_index].region);
    if (job.snapshots) {
        sim.warmupReplay((*job.snapshots)[point_index],
                         mruLlcDirtyWindow(mruCapacityLines(*job.machine),
                                           workload.threadCount()));
        sim.trainPredictors(trace);
    }
    return sim.simulateRegion(trace);
}

} // namespace

std::vector<std::vector<RegionStats>>
simulateMachines(const Workload &workload,
                 const BarrierPointAnalysis &analysis,
                 const std::vector<MachineJob> &jobs,
                 const ExecutionContext &exec)
{
    const size_t points = analysis.points.size();
    for (const MachineJob &job : jobs)
        BP_ASSERT(!job.snapshots || job.snapshots->size() == points,
                  "snapshot set not indexed like the barrierpoints");
    const size_t total = jobs.size() * points;
    std::vector<std::vector<RegionStats>> stats(
        jobs.size(), std::vector<RegionStats>(points));
    // Executors claim (machine, point) pairs in order, so each moves
    // through the machines once; every pair's stats land in its own
    // slot, whichever executor ran it.
    std::atomic<size_t> next{0};
    exec.pool().parallelFor(
        0, std::min<size_t>(exec.threadCount(), total), [&](uint64_t) {
            std::optional<MultiCoreSim> sim;
            size_t sim_job = 0;
            for (size_t pair = next++; pair < total; pair = next++) {
                const size_t m = pair / points;
                const size_t j = pair % points;
                if (sim && sim_job == m) {
                    sim->reset();
                } else {
                    sim.emplace(*jobs[m].machine);
                    sim_job = m;
                }
                stats[m][j] =
                    runBarrierPoint(*sim, workload, analysis, j, jobs[m]);
            }
        });
    return stats;
}

} // namespace bp
