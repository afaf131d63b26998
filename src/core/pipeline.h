/**
 * @file
 * The stateless kernels of the BarrierPoint pipeline (Figure 2 of the
 * paper). `bp::Experiment` (core/experiment.h) is the pipeline API: it
 * chains these kernels into a memoizing, persistable session. Call
 * them directly only to drive one stage in isolation, e.g. an
 * analysis-option sweep over profiles already in hand.
 *
 * One-time, microarchitecture-independent costs:
 *   profileWorkload()     -> per-region BBV/LDV profiles
 *   analyzeProfiles()     -> signatures, clustering, barrierpoints
 *   captureMru()          -> warmup data at barrierpoint entries, for
 *                            every machine the capture serves
 *
 * Per-simulation costs:
 *   runReference()     -> detailed simulation of every region
 *   simulateMachines() -> detailed simulation of only the
 *                         barrierpoints (cold or MRU-warmed)
 *
 * reconstruction.h turns barrierpoint stats into whole-program
 * estimates.
 *
 * Threading model: inter-barrier regions are independent units of
 * work (the paper's central observation), so every stage runs its
 * region-indexed loop on the ExecutionContext's pool
 * (support/execution_context.h — implicitly constructible from a
 * thread count or a shared ThreadPool): trace generation and
 * per-thread profiling in profileWorkload(), signature projection in
 * projectProfiles(), the k sweep and assignment step of clustering,
 * and per-barrierpoint simulation in simulateMachines(). Only MRU
 * snapshot capture is inherently serial (a streaming scan of the
 * whole run). Determinism contract: results are collected in index
 * order and every task touches only state owned by its index, so
 * output is bit-identical to the serial path for any thread count.
 */

#ifndef BP_CORE_PIPELINE_H
#define BP_CORE_PIPELINE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/core/reconstruction.h"
#include "src/core/selection.h"
#include "src/core/signature.h"
#include "src/profile/region_profiler.h"
#include "src/sim/multicore_sim.h"
#include "src/support/execution_context.h"
#include "src/workloads/workload.h"

namespace bp {

/** All knobs of the one-time analysis. */
struct BarrierPointOptions
{
    SignatureConfig signature;
    ClusteringConfig clustering;
    /** Reuse-distance collection mode (exact, or SHARDS-sampled). */
    ProfilingConfig profiling;
    double significance = 0.001;  ///< Table III's 0.1 % threshold
};

/**
 * Consumer of region profiles in region-index order — the streaming
 * handoff between the profiler and an analysis that never holds all
 * profiles at once (core/streaming.h). profileWorkloadToSink() calls
 * consume() exactly once per region, in ascending region order, from
 * the driving thread; the sink owns the profile from then on (project
 * it, spill it, drop it).
 */
class RegionProfileSink
{
  public:
    virtual ~RegionProfileSink() = default;
    virtual void consume(RegionProfile &&profile) = 0;
};

/**
 * Profile every region of @p workload, in execution order, under the
 * reuse-distance mode @p profiling: the default config is exact;
 * SHARDS modes trade a bounded LDV error for ~1/rate less
 * stack-distance work (see profile/profiling_config.h).
 *
 * With a multi-executor @p exec, trace generation runs ahead of the
 * profiler via lookahead prefetch and per-thread profiling fans out,
 * while the region-order reuse-distance state still advances
 * serially. Pass a thread count or a shared ThreadPool.
 */
std::vector<RegionProfile> profileWorkload(const Workload &workload,
                                           const ProfilingConfig &profiling,
                                           const ExecutionContext &exec = {});

/**
 * The streaming core of profileWorkload(): profile every region in
 * execution order and hand each finished RegionProfile to @p sink
 * instead of accumulating a vector — memory stays bounded by the
 * trace-generation lookahead ring no matter how many regions the
 * workload has. profileWorkload() is a thin collecting wrapper over
 * this function, so the two are bit-identical per region.
 */
void profileWorkloadToSink(const Workload &workload,
                           const ProfilingConfig &profiling,
                           RegionProfileSink &sink,
                           const ExecutionContext &exec = {});

/** Build and project signatures for a set of region profiles. */
std::vector<std::vector<double>> projectProfiles(
    const std::vector<RegionProfile> &profiles,
    const SignatureConfig &signature, const ClusteringConfig &clustering,
    const ExecutionContext &exec = {});

/**
 * Run the full analysis on existing profiles (lets callers sweep
 * signature/clustering settings without re-profiling).
 */
BarrierPointAnalysis analyzeProfiles(
    const std::vector<RegionProfile> &profiles,
    const BarrierPointOptions &options = {},
    const ExecutionContext &exec = {});

/** Detailed simulation of the complete application (the reference). */
RunResult runReference(const Workload &workload,
                       const MachineConfig &machine);

/** How to initialize microarchitectural state for a barrierpoint. */
enum class WarmupPolicy {
    Cold,       ///< no warmup: caches start empty
    MruReplay,  ///< replay each core's MRU lines (the paper's method)
};

/** @return "cold" or "mru" (stable CLI/artifact spelling). */
const char *warmupPolicyName(WarmupPolicy policy);

/** One MRU snapshot (per-core entry lists) per requested region. */
using MruSnapshotSet = std::vector<std::vector<std::vector<MruEntry>>>;

/** Per-core MRU capture capacity the MruReplay policy uses. */
inline uint64_t
mruCapacityLines(const MachineConfig &machine)
{
    return machine.mem.l3.numLines() * machine.mem.numSockets();
}

/** Private-cache capacity for the MRU dirtiness filter. */
inline uint64_t
mruPrivateLines(const MachineConfig &machine)
{
    return machine.mem.l2.numLines();
}

/**
 * How far from its MRU end a per-core list replays an LLC-dirty copy,
 * for a machine whose capture capacity is @p capacity_lines: about
 * one core's share of the LLC. Older dirty data has likely been
 * written back by LLC contention already.
 */
inline uint64_t
mruLlcDirtyWindow(uint64_t capacity_lines, unsigned threads)
{
    return std::max<uint64_t>(1, capacity_lines / threads);
}

/**
 * @return why @p snapshots cannot be an MRU capture at @p points
 * barrierpoints of a @p threads-thread workload by trackers of
 * per-core capacity @p capacity_lines that reached @p high_water_lines
 * and, when @p evicted, dropped a line for capacity; or nullptr.
 * MruTracker::snapshot lists each retained line once, at most the
 * high-water mark, with at most one of its two flags; the high-water
 * mark never exceeds the capacity and reaches it before any eviction;
 * a capture holds one snapshot per point and one list per thread.
 * Snapshot artifacts and Experiment::seedSnapshots both check sets
 * from outside with it.
 */
const char *snapshotSetError(const MruSnapshotSet &snapshots, size_t points,
                             unsigned threads, uint64_t capacity_lines,
                             uint64_t high_water_lines, bool evicted);

/**
 * One MRU capture with *unwindowed* llcDirty bits: the lists every
 * tracker capacity it serves would have produced (see MruTracker),
 * before any machine's mruLlcDirtyWindow() is applied.
 */
struct MruCapture
{
    MruSnapshotSet snapshots;
    uint64_t highWaterLines = 0;  ///< the largest tracker high-water mark
    bool evicted = false;         ///< some tracker evicted a line
};

/**
 * The one capture loop: per-core MRU snapshots at the start of each
 * listed region.
 *
 * @param workload        the application
 * @param regions         region indices wanting warmup data (sorted
 *                        or not; duplicates fine)
 * @param capacity_lines  per-core tracker capacity; the paper uses
 *                        the largest shared-LLC capacity simulated
 * @param private_lines   private-cache capacity for the dirtiness
 *                        filter (see MruTracker)
 * @return one snapshot (per-core entry lists, LRU->MRU) per requested
 *         region, keyed by position in @p regions, with the trackers'
 *         high-water mark and eviction fact
 */
MruCapture captureMru(const Workload &workload,
                      const std::vector<uint32_t> &regions,
                      uint64_t capacity_lines, uint64_t private_lines);

/** applyLlcDirtyWindow() on every list of a raw capture. */
void applyLlcDirtyWindow(MruSnapshotSet &snapshots, uint64_t window);

/**
 * captureMru() windowed for one machine: its snapshots with
 * mruLlcDirtyWindow(capacity_lines, workload threads) applied.
 */
MruSnapshotSet captureMruSnapshots(
    const Workload &workload, const std::vector<uint32_t> &regions,
    uint64_t capacity_lines, uint64_t private_lines = 4096);

/**
 * Capture MRU snapshots at every barrierpoint of @p analysis, sized
 * and windowed for @p machine: exactly what a MruReplay simulation of
 * that machine replays. Experiment's snapshot stage instead keeps one
 * raw captureMru() for every machine it serves and windows at replay.
 */
MruSnapshotSet captureAnalysisSnapshots(const Workload &workload,
                                        const MachineConfig &machine,
                                        const BarrierPointAnalysis &analysis);

/** A machine for simulateMachines(), with its warmup data. */
struct MachineJob
{
    const MachineConfig *machine;
    /** nullptr: start cold. Otherwise indexed like analysis.points,
     *  with at most one list per core of the machine; a raw
     *  captureMru() set or one already windowed for this machine. */
    const MruSnapshotSet *snapshots;
};

/**
 * Simulate every barrierpoint of @p analysis on each machine of
 * @p jobs, in one fan-out over all (machine, point) pairs so that
 * short per-machine tails overlap on a multi-executor @p exec.
 *
 * Every barrierpoint starts on a fresh machine. With snapshots, each
 * point first replays (*jobs[m].snapshots)[j] into the caches, within
 * the machine's mruLlcDirtyWindow(), and trains the branch predictors
 * on its own trace; without, it starts cold. out[m][j] is the stats of analysis.points[j] on machine m and
 * does not depend on the executor count. Each executor keeps one
 * MultiCoreSim and reset()s it between points of the same machine,
 * which restores a fresh machine's state without allocating and
 * faulting in its cache arrays again.
 */
std::vector<std::vector<RegionStats>> simulateMachines(
    const Workload &workload, const BarrierPointAnalysis &analysis,
    const std::vector<MachineJob> &jobs, const ExecutionContext &exec = {});

} // namespace bp

#endif // BP_CORE_PIPELINE_H
