/**
 * @file
 * Counter pin for the memory system: every MemStats counter of the
 * MRU-warmed barrierpoint run and of the full reference run, summed
 * over regions, on multi-socket machines where invalidations,
 * upgrades, remote hits and writebacks all occur.
 *
 * estimate_pin_test pins cycles, instructions, DRAM accesses and LLC
 * misses. Writebacks charge no latency, so a drift in dramWrites,
 * invalidations or upgrades would leave every cycle count unchanged;
 * this suite catches it. The shrunken-L3 case forces inclusive-L3
 * evictions, so back-invalidation and the writebacks it causes are
 * pinned too.
 *
 * The 32-core cases run fewer threads than the machine has cores.
 * With 8 threads only socket 0 is in use, so no line ever comes from
 * another socket (the shrunken-L3 variant adds L3 evictions on that
 * one socket). With 12 threads socket 1 joins while socket 0 already
 * holds lines.
 *
 * The first three goldens were recorded before the coherence directory
 * moved into the L3 (sharer words per L3 way, a flat home map of
 * socket masks); the 32-core ones with the eagerly kept home map, before
 * it was built only once a second socket is in use. Like
 * estimate_pin_test, a mismatch is a behaviour change: re-record only
 * for an intentional model change, and say so.
 */

#include <gtest/gtest.h>

#include "src/core/barrierpoint.h"

namespace bp {
namespace {

struct CounterCase
{
    const char *workload;
    unsigned threads;
    double scale;
    unsigned cores;
    uint64_t l3Bytes;  ///< 0 keeps the machine's default L3
    MemStats mru;        ///< goldens, in MemStats field order
    MemStats reference;
};

const CounterCase kCases[] = {
    {"npb-is", 16u, 0.25, 16u, 0,
     {104192u, 32246u, 27309u, 22491u, 10474u, 11672u, 770u, 16911u,
      1395u, 22146u},
     {104192u, 29678u, 30762u, 22531u, 9976u, 11245u, 1036u, 21380u,
      2028u, 21221u}},
    {"npb-ft", 48u, 0.1, 48u, 0,
     {23867u, 15562u, 0u, 457u, 1474u, 6374u, 1323u, 2744u, 3061u, 7848u},
     {56859u, 45506u, 0u, 929u, 3142u, 7282u, 2847u, 5792u, 5089u,
      10424u}},
    {"npb-cg", 16u, 0.1, 16u, 256u * 1024u,
     {39329u, 3659u, 30u, 572u, 52u, 35016u, 6877u, 27186u, 822u, 35068u},
     {272341u, 27436u, 45u, 4305u, 390u, 240165u, 26413u, 236412u, 24570u,
      240555u}},
    {"npb-cg", 8u, 0.1, 32u, 0,
     {35329u, 2562u, 17512u, 211u, 0u, 15044u, 0u, 3u, 822u, 15044u},
     {242341u, 19215u, 207306u, 776u, 0u, 15044u, 0u, 3u, 880u, 15044u}},
    {"npb-cg", 8u, 0.1, 32u, 256u * 1024u,
     {35329u, 2336u, 742u, 170u, 0u, 32081u, 7956u, 28155u, 745u, 32081u},
     {242341u, 19215u, 6150u, 1275u, 0u, 215701u, 26873u, 212880u, 24570u,
      215701u}},
    {"npb-is", 12u, 0.25, 32u, 0,
     {104032u, 26398u, 35023u, 22382u, 8462u, 11767u, 759u, 19051u, 3528u,
      20229u},
     {104032u, 26530u, 35313u, 22382u, 8251u, 11556u, 1181u, 20538u, 3817u,
      19807u}},
};

MemStats
sumCounters(const std::vector<RegionStats> &regions)
{
    MemStats sum;
    for (const RegionStats &r : regions) {
        sum.accesses += r.mem.accesses;
        sum.l1Hits += r.mem.l1Hits;
        sum.l2Hits += r.mem.l2Hits;
        sum.l3Hits += r.mem.l3Hits;
        sum.remoteHits += r.mem.remoteHits;
        sum.dramReads += r.mem.dramReads;
        sum.dramWrites += r.mem.dramWrites;
        sum.invalidations += r.mem.invalidations;
        sum.upgrades += r.mem.upgrades;
        sum.llcMisses += r.mem.llcMisses;
    }
    return sum;
}

void
expectCounters(const MemStats &got, const MemStats &want, const char *run)
{
    SCOPED_TRACE(run);
    EXPECT_EQ(got.accesses, want.accesses);
    EXPECT_EQ(got.l1Hits, want.l1Hits);
    EXPECT_EQ(got.l2Hits, want.l2Hits);
    EXPECT_EQ(got.l3Hits, want.l3Hits);
    EXPECT_EQ(got.remoteHits, want.remoteHits);
    EXPECT_EQ(got.dramReads, want.dramReads);
    EXPECT_EQ(got.dramWrites, want.dramWrites);
    EXPECT_EQ(got.invalidations, want.invalidations);
    EXPECT_EQ(got.upgrades, want.upgrades);
    EXPECT_EQ(got.llcMisses, want.llcMisses);
}

class MemStatsPinTest : public ::testing::TestWithParam<CounterCase>
{};

TEST_P(MemStatsPinTest, EveryCounterMatchesGolden)
{
    const CounterCase &g = GetParam();
    WorkloadParams params;
    params.threads = g.threads;
    params.scale = g.scale;
    const auto wl = makeWorkload(g.workload, params);
    auto machine = MachineConfig::withCores(g.cores);
    if (g.l3Bytes) {
        machine.mem.l3.sizeBytes = g.l3Bytes;
        machine.name += "-small-l3";
    }

    Experiment experiment(*wl);
    const MemStats mru = sumCounters(
        experiment.simulate(machine, WarmupPolicy::MruReplay).stats);
    const MemStats reference =
        sumCounters(experiment.reference(machine).regions);

    // The pin is only meaningful where the coherence paths fire. A run
    // whose threads fit one socket pins the single-socket path instead:
    // no line may come from another socket.
    ASSERT_GT(reference.invalidations, 0u);
    ASSERT_GT(reference.upgrades, 0u);
    if (g.threads <= machine.mem.coresPerSocket) {
        ASSERT_EQ(reference.remoteHits, 0u);
        ASSERT_EQ(mru.remoteHits, 0u);
    } else {
        ASSERT_GT(reference.remoteHits, 0u);
        ASSERT_GT(reference.dramWrites, 0u);
    }

    expectCounters(mru, g.mru, "mru");
    expectCounters(reference, g.reference, "reference");
}

INSTANTIATE_TEST_SUITE_P(
    GoldenConfigs, MemStatsPinTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<CounterCase> &info) {
        std::string name = info.param.workload;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        name += "_" + std::to_string(info.param.cores) + "c";
        if (info.param.l3Bytes)
            name += "_l3_" + std::to_string(info.param.l3Bytes / 1024) + "k";
        return name;
    });

} // namespace
} // namespace bp
