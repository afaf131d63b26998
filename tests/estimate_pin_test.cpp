/**
 * @file
 * Bit-identity pin for the CoreSet directory refactor (and any future
 * representation change): on <= 64-core configurations, the full
 * pipeline (profile -> analyze -> simulate -> reconstruct, plus the
 * reference run) must produce Estimates that are IEEE-754
 * bit-identical to the flat-uint64_t-mask implementation this repo
 * shipped before the refactor.
 *
 * The golden values below are the exact bit patterns produced by that
 * pre-refactor build (same workloads, same default options). Every
 * stage of the pipeline is deterministic by contract — seeded RNG, no
 * timing dependence, thread-count-independent results — so a single
 * flipped bit here means observable behavior changed for existing
 * machine configurations, which this project treats as a regression,
 * not a tolerance question.
 *
 * If a future PR changes <= 64-core behavior *intentionally* (e.g. a
 * timing-model fix), re-record the goldens in that PR and say so in
 * its description; never loosen the comparison to EXPECT_NEAR.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "src/core/barrierpoint.h"

namespace bp {
namespace {

uint64_t
bits(double v)
{
    uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

struct GoldenCase
{
    const char *workload;
    unsigned threads;
    double scale;
    unsigned cores;
    uint64_t mruTotalCycles;
    uint64_t mruTotalInstructions;
    uint64_t mruDramAccesses;
    uint64_t mruLlcMisses;
    uint64_t coldTotalCycles;
    uint64_t referenceTotalCycles;
};

// Captured from the pre-CoreSet build (flat 64-bit holder masks) at
// commit 9a4c713, Release, default BarrierPointOptions.
const GoldenCase kGoldens[] = {
    {"npb-is", 8u, 0.25, 8u,
     0x411a4274f2dd3733ull, 0x411209c000000000ull, 0x40c5000000000000ull,
     0x40c5000000000000ull,
     0x4135c5489c62dbffull, 0x411a44e64648ceb0ull},
    {"npb-cg", 16u, 0.1, 16u,
     0x410a48575f51eb5aull, 0x41216bd400000000ull, 0x40d02b8000000000ull,
     0x40d0340000000000ull,
     0x4145f097a722f8f0ull, 0x410a50d75f521b80ull},
    {"npb-ft", 48u, 0.1, 48u,
     0x40fad7d23557b423ull, 0x4107466000000000ull, 0x40c3828000000000ull,
     0x40c45c0000000000ull,
     0x41034a711f00a9d0ull, 0x40fadfec5b017210ull},
    {"parsec-bodytrack", 4u, 0.1, 64u,
     0x4103dc910e9f0752ull, 0x40fb030000000000ull, 0x40ac680000000000ull,
     0x40ac680000000000ull,
     0x412111d4c4aa7438ull, 0x41040d266f20baeeull},
    // Fewer threads than cores on the 32-core machine, recorded with the
    // home map kept from the first access, before it was built only once
    // a second socket is in use: 8 threads keep to socket 0, and with
    // 12 socket 1 joins while socket 0 already holds lines.
    {"npb-cg", 8u, 0.1, 32u,
     0x411775e2eb141f44ull, 0x411ee6e800000000ull, 0x40cd620000000000ull,
     0x40cd620000000000ull,
     0x4153abad068ca463ull, 0x41177d94eb141f44ull},
    {"npb-is", 12u, 0.25, 32u,
     0x41127c6f5f86839eull, 0x4112078000000000ull, 0x40c8770000000000ull,
     0x40d3c14000000000ull,
     0x412dbc8141202581ull, 0x4110dd6e9f0cb588ull},
};

class EstimatePinTest : public ::testing::TestWithParam<GoldenCase>
{};

TEST_P(EstimatePinTest, FullPipelineIsBitIdenticalToPreRefactor)
{
    const GoldenCase &g = GetParam();
    WorkloadParams params;
    params.threads = g.threads;
    params.scale = g.scale;
    const auto wl = makeWorkload(g.workload, params);
    const auto machine = MachineConfig::withCores(g.cores);

    Experiment experiment(*wl);

    const auto &mru = experiment.estimate(machine, WarmupPolicy::MruReplay);
    EXPECT_EQ(bits(mru.totalCycles), g.mruTotalCycles);
    EXPECT_EQ(bits(mru.totalInstructions), g.mruTotalInstructions);
    EXPECT_EQ(bits(mru.dramAccesses), g.mruDramAccesses);
    EXPECT_EQ(bits(mru.llcMisses), g.mruLlcMisses);

    const auto &cold = experiment.estimate(machine, WarmupPolicy::Cold);
    EXPECT_EQ(bits(cold.totalCycles), g.coldTotalCycles);

    const auto &reference = experiment.reference(machine);
    EXPECT_EQ(bits(reference.totalCycles()), g.referenceTotalCycles);
}

INSTANTIATE_TEST_SUITE_P(
    GoldenConfigs, EstimatePinTest, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        std::string name = info.param.workload;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name + "_" + std::to_string(info.param.cores) + "c";
    });

} // namespace
} // namespace bp
