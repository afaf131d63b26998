/**
 * @file
 * Streaming-analysis stress benchmark: memory footprint at 10^5 - 10^6
 * regions.
 *
 * The batch pipeline materializes every region's profile and signature
 * before clustering — O(regions) memory that makes million-region
 * traces intractable. The streaming analyzer holds O(k + batch +
 * reservoir) state and spills projected points to disk. This binary
 * pins the difference down: a synthetic workload with a bounded
 * per-region footprint but an arbitrary region count runs through one
 * analysis mode per process (peak RSS is a high-water mark, so modes
 * must not share a process), reporting wall time, peak RSS
 * (bench_util peakRssBytes), and the chosen clustering.
 *
 * Usage:
 *   perf_streaming [--regions N] [--threads T] [--mode streaming|batch]
 *                  [--budget BYTES] [--check-rss BYTES] [--json [FILE]]
 *
 * `--check-rss` exits nonzero when peak RSS exceeds the bound — CI
 * runs the streaming mode under it (and under `ulimit -v`) at a
 * region count where batch mode blows the same limit. Numbers are
 * recorded in bench/BASELINE.md.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <string>

#include "bench/bench_util.h"
#include "src/core/streaming.h"
#include "src/support/rng.h"

namespace bp {
namespace {

/**
 * A million-region workload that any machine can hold: each region is
 * a few hundred ops regenerated on demand, with a handful of phase
 * archetypes (distinct BBV/LDV shapes) so the clustering has real
 * structure to find. Region traces are tiny by design — the memory
 * under test is the *analysis pipeline's*, not the workload's.
 */
class StressWorkload : public Workload
{
  public:
    StressWorkload(const WorkloadParams &params, unsigned regions)
        : Workload("stress-stream", params), regions_(regions)
    {}

    unsigned regionCount() const override { return regions_; }

  private:
    RegionTrace
    generate(unsigned index) const override
    {
        const unsigned threads = threadCount();
        RegionTrace trace(index, threads);
        // Slow phase rotation + a short-period detail pattern: a few
        // dominant clusters with intra-phase variation.
        const unsigned phase = (index / 1024) % 5;
        const unsigned detail = index % 7;
        for (unsigned t = 0; t < threads; ++t) {
            Rng rng = Rng::forTask(params().seed,
                                   uint64_t{index} * threads + t);
            auto &ops = trace.thread(t);
            const unsigned n = 48 + phase * 24 + detail * 4;
            ops.reserve(n);
            const uint64_t base =
                arrayBase(t) + (uint64_t{phase} << 16);
            for (unsigned i = 0; i < n; ++i) {
                const uint32_t bb = phase * 16 + i % (8 + detail);
                switch (rng.nextBounded(4)) {
                  case 0:
                    ops.push_back(MicroOp::alu(bb));
                    break;
                  case 1:  // hot per-phase set: short reuse distances
                    ops.push_back(MicroOp::load(
                        bb, base + rng.nextBounded(64) * 64));
                    break;
                  default: {  // phase working set, read/write mix
                    const uint64_t addr =
                        base + (1ull << 14) +
                        rng.nextBounded(unsigned{1} << (12 + phase)) * 64;
                    ops.push_back(rng.nextBounded(3) == 0
                                      ? MicroOp::store(bb, addr)
                                      : MicroOp::load(bb, addr));
                    break;
                  }
                }
            }
        }
        return trace;
    }

  private:
    unsigned regions_;
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace
} // namespace bp

int
main(int argc, char **argv)
{
    using namespace bp;

    unsigned regions = 1000000;
    unsigned threads = 2;
    std::string mode = "streaming";
    uint64_t budget = 256ull << 20;
    uint64_t check_rss = 0;
    bool json = false;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--regions") && i + 1 < argc) {
            regions = static_cast<unsigned>(
                parseUintArg("--regions", argv[++i]));
        } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
            threads = static_cast<unsigned>(
                parseUintArg("--threads", argv[++i]));
        } else if (!std::strcmp(argv[i], "--mode") && i + 1 < argc) {
            mode = argv[++i];
        } else if (!std::strcmp(argv[i], "--budget") && i + 1 < argc) {
            budget = parseUintArg("--budget", argv[++i]);
        } else if (!std::strcmp(argv[i], "--check-rss") && i + 1 < argc) {
            check_rss = parseUintArg("--check-rss", argv[++i]);
        } else if (!std::strcmp(argv[i], "--json")) {
            json = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--regions N] [--threads T] "
                         "[--mode streaming|batch] [--budget BYTES] "
                         "[--check-rss BYTES] [--json [FILE]]\n",
                         argv[0]);
            return 2;
        }
    }
    if (mode != "streaming" && mode != "batch") {
        std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
        return 2;
    }

    WorkloadParams params;
    params.threads = threads;
    const StressWorkload workload(params, regions);
    BarrierPointOptions options;

    std::printf("%s: %u regions, %u threads, mode %s\n",
                workload.name().c_str(), regions, threads, mode.c_str());

    const double start = now();
    BarrierPointAnalysis analysis;
    bool spilled = false;
    if (mode == "streaming") {
        StreamingConfig config;
        config.enabled = true;
        config.memoryBudgetBytes = budget;
        StreamingAnalyzer analyzer(regions, options, config);
        spilled = analyzer.spillsToDisk();
        profileWorkloadToSink(workload, options.profiling, analyzer);
        analysis = analyzer.finish();
    } else {
        analysis = analyzeProfiles(
            profileWorkload(workload, options.profiling), options);
    }
    const double elapsed = now() - start;
    const uint64_t rss = peakRssBytes();

    std::printf("%zu barrierpoints (k=%u) from %u regions in %.1f s\n",
                analysis.points.size(), analysis.chosenK, regions,
                elapsed);
    std::printf("peak RSS %.1f MB (budget %.1f MB, %s)\n", rss / 1048576.0,
                budget / 1048576.0,
                mode == "batch"        ? "batch: budget not enforced"
                : spilled              ? "points spilled to disk"
                                       : "points held in memory");

    if (json) {
        FILE *out = stdout;
        if (!json_path.empty()) {
            out = std::fopen(json_path.c_str(), "w");
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n",
                             json_path.c_str());
                return 1;
            }
        }
        std::fprintf(out,
                     "{\n"
                     "  \"mode\": \"%s\",\n"
                     "  \"regions\": %u,\n"
                     "  \"threads\": %u,\n"
                     "  \"budget_bytes\": %llu,\n"
                     "  \"spilled\": %s,\n"
                     "  \"barrierpoints\": %zu,\n"
                     "  \"chosen_k\": %u,\n"
                     "  \"seconds\": %.3f,\n"
                     "  \"peak_rss_bytes\": %llu\n"
                     "}\n",
                     mode.c_str(), regions, threads,
                     (unsigned long long)budget, spilled ? "true" : "false",
                     analysis.points.size(), analysis.chosenK, elapsed,
                     (unsigned long long)rss);
        if (out != stdout)
            std::fclose(out);
    }

    if (check_rss > 0 && rss > check_rss) {
        std::fprintf(stderr,
                     "peak RSS %llu bytes exceeds the required bound "
                     "%llu\n",
                     (unsigned long long)rss,
                     (unsigned long long)check_rss);
        return 1;
    }
    return 0;
}
