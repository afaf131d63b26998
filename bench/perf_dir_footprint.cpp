/**
 * @file
 * Coherence-directory footprint across machine widths: drives an
 * identical sharing-heavy synthetic stream through MemSystem at 8 to
 * 1024 cores and reports live directory lines, the home map's slot
 * bytes per line and the core-valid words held in the L3 ways
 * (MemSystem::dirFootprint()).
 *
 * Private sharers live in a 64-bit core-valid word in each L3 way, so
 * a home map slot holds only the line, its socket mask and the
 * owner's socket: its size does not grow with the number of sharers,
 * and the L3 words cost a fixed 8 bytes per way whatever the sharing
 * pattern. The home map exists only once a second socket is in use:
 * a single-socket machine keeps none, and neither does the 32-core
 * machine when only its first 8 cores (socket 0) run the stream, the
 * under-subscribed row. Its lines are socket 0's L3 occupancy, the
 * same as the 8-core row's.
 *
 * Numbers are recorded in bench/BASELINE.md; regenerate with
 * ./build/bench/perf_dir_footprint. With --check, exit 1 unless every
 * row tracks exactly its recorded line count and its home map
 * costs no more bytes per line than recorded (both are deterministic:
 * so are the stream, the coherence model and the map's growth). A
 * recorded 0 means the row must keep no home map at all.
 */

#include <cstdio>
#include <cstring>

#include "src/memsys/mem_system.h"
#include "src/support/rng.h"

namespace {

struct Width
{
    unsigned cores;
    unsigned active;  ///< cores 0..active-1 run the stream
    unsigned long long recordedLines;
    double recordedBytesPerLine;  ///< rounded up to one decimal
};

constexpr Width kWidths[] = {{8, 8, 7624, 0.0},
                             {32, 8, 7624, 0.0},
                             {64, 64, 36864, 71.2},
                             {256, 256, 135168, 77.6},
                             {1024, 1024, 528384, 79.4}};

} // namespace

int
main(int argc, char **argv)
{
    using namespace bp;

    const bool check = argc == 2 && std::strcmp(argv[1], "--check") == 0;
    if (argc > 1 && !check) {
        std::fprintf(stderr, "usage: perf_dir_footprint [--check]\n");
        return 2;
    }

    bool ok = true;
    std::printf("%8s %8s %10s %12s %14s %14s\n", "cores", "active",
                "sockets", "dir lines", "bytes/line", "L3 word MB");
    for (const Width &width : kWidths) {
        MemSystemConfig cfg;
        cfg.numCores = width.cores;
        cfg.coresPerSocket = 8;
        MemSystem mem(cfg);

        // Same per-core access recipe at every width: a widely shared
        // read-mostly region (lines with many sharers), a
        // neighbour-shared band, and a private band per core. Streams
        // scale with the active core count, so wider runs hold more
        // lines; bytes/line isolates the per-entry cost.
        Rng rng(0xD17F007);
        constexpr uint64_t kSharedLines = 4096;
        constexpr uint64_t kPrivateLines = 512;
        for (unsigned core = 0; core < width.active; ++core) {
            for (uint64_t i = 0; i < kSharedLines / 4; ++i) {
                const uint64_t line = rng.nextBounded(kSharedLines);
                mem.access(core, line * 64, rng.nextBounded(16) == 0,
                           0.0);
            }
            for (uint64_t i = 0; i < kPrivateLines; ++i) {
                const uint64_t line = (1u << 20) +
                                      uint64_t{core} * kPrivateLines +
                                      (i % kPrivateLines);
                mem.access(core, line * 64, rng.nextBounded(4) == 0,
                           0.0);
            }
        }

        const auto fp = mem.dirFootprint();
        std::printf("%8u %8u %10u %12llu %14.1f %14.1f\n", width.cores,
                    width.active, cfg.numSockets(),
                    static_cast<unsigned long long>(fp.lines),
                    fp.bytesPerLine,
                    static_cast<double>(fp.wayBytes) / (1 << 20));
        if (fp.lines != width.recordedLines) {
            std::printf("  directory lines differ from the recorded %llu\n",
                        width.recordedLines);
            ok = false;
        }
        if (fp.bytesPerLine > width.recordedBytesPerLine) {
            std::printf("  bytes/line exceeds the recorded %.1f\n",
                        width.recordedBytesPerLine);
            ok = false;
        }
    }
    if (check)
        std::printf("check: %s\n", ok ? "ok" : "FAILED");
    return check && !ok ? 1 : 0;
}
