#include "src/core/reconstruction.h"

#include "src/support/logging.h"

namespace bp {

double
Estimate::dramApki() const
{
    if (totalInstructions <= 0.0)
        return 0.0;
    return 1000.0 * dramAccesses / totalInstructions;
}

double
Estimate::ipc() const
{
    return totalCycles > 0.0 ? totalInstructions / totalCycles : 0.0;
}

Estimate
reconstruct(const BarrierPointAnalysis &analysis,
            const std::vector<RegionStats> &point_stats,
            bool use_multipliers)
{
    BP_ASSERT(point_stats.size() == analysis.points.size(),
              "need one stats record per barrierpoint");
    BP_ASSERT(!analysis.indexError(), "inconsistent analysis indices");

    // Without multiplier scaling, each barrierpoint stands in for its
    // cluster's regions without correcting for length differences.
    std::vector<double> factor(analysis.points.size(), 0.0);
    if (use_multipliers) {
        for (size_t j = 0; j < analysis.points.size(); ++j)
            factor[j] = analysis.points[j].multiplier;
    } else {
        for (const unsigned j : analysis.regionToPoint)
            factor[j] += 1.0;
    }

    Estimate estimate;
    for (size_t j = 0; j < analysis.points.size(); ++j) {
        const RegionStats &stats = point_stats[j];
        estimate.totalCycles += factor[j] * stats.cycles;
        estimate.totalInstructions +=
            factor[j] * static_cast<double>(stats.instructions);
        estimate.dramAccesses +=
            factor[j] * static_cast<double>(stats.mem.dramAccesses());
        estimate.llcMisses +=
            factor[j] * static_cast<double>(stats.mem.llcMisses);
    }
    return estimate;
}

std::vector<ReconstructedRegion>
reconstructTimeline(const BarrierPointAnalysis &analysis,
                    const std::vector<RegionStats> &point_stats)
{
    BP_ASSERT(point_stats.size() == analysis.points.size(),
              "need one stats record per barrierpoint");
    BP_ASSERT(!analysis.indexError(), "inconsistent analysis indices");

    std::vector<ReconstructedRegion> timeline;
    timeline.reserve(analysis.regionToPoint.size());
    double clock = 0.0;
    for (size_t i = 0; i < analysis.regionToPoint.size(); ++i) {
        const unsigned j = analysis.regionToPoint[i];
        const BarrierPoint &point = analysis.points[j];
        const RegionStats &rep = point_stats[j];

        ReconstructedRegion region;
        region.regionIndex = static_cast<uint32_t>(i);
        region.startCycle = clock;
        const double scale = point.instructions > 0
            ? static_cast<double>(analysis.regionInstructions[i]) /
                static_cast<double>(point.instructions)
            : 0.0;
        region.cycles = rep.cycles * scale;
        region.ipc = rep.ipc();
        region.isBarrierPoint = point.region == i;
        clock += region.cycles;
        timeline.push_back(region);
    }
    return timeline;
}

std::vector<RegionStats>
perfectWarmupStats(const BarrierPointAnalysis &analysis,
                   const RunResult &full_run)
{
    std::vector<RegionStats> stats;
    stats.reserve(analysis.points.size());
    for (const auto &point : analysis.points) {
        BP_ASSERT(point.region < full_run.regions.size(),
                  "barrierpoint outside the reference run");
        stats.push_back(full_run.regions[point.region]);
    }
    return stats;
}

} // namespace bp
