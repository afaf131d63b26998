/**
 * @file
 * Tests for the `bp` CLI's invocation surface: --help output lists
 * the registered workload and machine names, and exit codes separate
 * usage errors (2) from runtime failures (1) and success (0).
 *
 * The binary path is injected by CMake as BP_CLI_PATH; these tests
 * only exercise cheap paths (help, error handling, and one tiny
 * artifact chain for the forged-snapshot case), not full pipeline
 * runs — those live in the CI artifact-flow jobs.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/wait.h>

#include "src/core/artifacts.h"

namespace {

struct RunResult
{
    int exitCode = -1;
    std::string output;  ///< stdout + stderr, interleaved
};

/** Run the CLI with @p args, capturing both output streams. */
RunResult
runCli(const std::string &args)
{
    const std::string command =
        std::string(BP_CLI_PATH) + " " + args + " 2>&1";
    RunResult result;
    std::FILE *pipe = popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << command;
    if (!pipe)
        return result;
    std::array<char, 4096> buffer;
    size_t n;
    while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0)
        result.output.append(buffer.data(), n);
    const int status = pclose(pipe);
    result.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

TEST(CliTest, HelpExitsZeroAndListsWorkloadsAndMachines)
{
    for (const std::string invocation : {"--help", "-h", "help"}) {
        const RunResult result = runCli(invocation);
        EXPECT_EQ(result.exitCode, 0) << invocation;
        EXPECT_NE(result.output.find("usage: bp"), std::string::npos);
        // Registered workload names...
        EXPECT_NE(result.output.find("npb-cg"), std::string::npos);
        EXPECT_NE(result.output.find("parsec-bodytrack"),
                  std::string::npos);
        // ...and machine names, including the generic pattern.
        EXPECT_NE(result.output.find("8-core"), std::string::npos);
        EXPECT_NE(result.output.find("64-core"), std::string::npos);
        EXPECT_NE(result.output.find("<N>-core"), std::string::npos);
    }
}

TEST(CliTest, SubcommandHelpPrintsUsage)
{
    const RunResult result = runCli("profile --help");
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_NE(result.output.find("usage: bp"), std::string::npos);
}

TEST(CliTest, HelpWhereAValueBelongsStaysAUsageError)
{
    // `--help` in a value position is a malformed command line, not a
    // help request — scripts must still see the failure.
    const RunResult result =
        runCli("profile --workload --help -o /dev/null");
    EXPECT_EQ(result.exitCode, 2);
}

TEST(CliTest, NoArgumentsIsAUsageError)
{
    const RunResult result = runCli("");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("usage: bp"), std::string::npos);
}

TEST(CliTest, UnknownCommandIsAUsageError)
{
    const RunResult result = runCli("frobnicate");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("unknown command"), std::string::npos);
}

TEST(CliTest, UnknownOptionIsAUsageError)
{
    const RunResult result =
        runCli("profile --workload npb-is --bogus 1 -o /dev/null");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("unknown option"), std::string::npos);
}

TEST(CliTest, UnknownWorkloadIsAUsageErrorListingNames)
{
    const RunResult result =
        runCli("profile --workload no-such-benchmark -o /dev/null");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("unknown workload"), std::string::npos);
    // The error itself names the valid choices.
    EXPECT_NE(result.output.find("npb-cg"), std::string::npos);
    EXPECT_NE(result.output.find("npb-ft"), std::string::npos);
}

TEST(CliTest, UnknownMachineIsAUsageErrorListingNames)
{
    const RunResult result = runCli(
        "simulate --analysis missing.bp --machine warp-drive -o out.bp");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("unknown machine"), std::string::npos);
    EXPECT_NE(result.output.find("32-core"), std::string::npos);
    EXPECT_NE(result.output.find("<N>-core"), std::string::npos);
}

TEST(CliTest, BadOptionValueIsAUsageError)
{
    const RunResult threads =
        runCli("profile --workload npb-is --threads lots -o /dev/null");
    EXPECT_EQ(threads.exitCode, 2);
    EXPECT_NE(threads.output.find("wants a non-negative integer"),
              std::string::npos);

    const RunResult range =
        runCli("profile --workload npb-is --threads 1025 -o /dev/null");
    EXPECT_EQ(range.exitCode, 2);

    const RunResult missing = runCli("analyze --profile");
    EXPECT_EQ(missing.exitCode, 2);
    EXPECT_NE(missing.output.find("missing its value"),
              std::string::npos);

    // Garbage --jobs must be a usage error, not a thread-pool panic.
    const RunResult jobs =
        runCli("profile --workload npb-is --jobs -1 -o /dev/null");
    EXPECT_EQ(jobs.exitCode, 2);
    EXPECT_NE(jobs.output.find("--jobs"), std::string::npos);
}

TEST(CliTest, IntegerOptionsRejectEveryStrtoullLeniency)
{
    // Integer options parse through the strict parseUint(), not
    // strtoull: trailing junk ("8x" used to read as 8), signs ("-1"
    // used to read as 2^64 - 1, "+8" as 8), embedded or leading
    // whitespace, empty values, base prefixes, and overflow must all
    // exit 2 with the option named, never run with a half-parsed or
    // wrapped value.
    for (const std::string bad :
         {"8x", "-1", "+8", "' 8'", "'8 '", "0x10", "''",
          "99999999999999999999999999"}) {
        for (const std::string option : {"--threads", "--seed"}) {
            const RunResult result =
                runCli("profile --workload npb-is " + option + " " +
                       bad + " -o /dev/null");
            EXPECT_EQ(result.exitCode, 2) << option << " " << bad;
            EXPECT_NE(result.output.find(option), std::string::npos)
                << option << " " << bad;
            EXPECT_NE(result.output.find("wants a non-negative integer"),
                      std::string::npos)
                << option << " " << bad;
        }
    }
    // The same class through `--profiling sampled_adaptive:S`, whose
    // budget is parsed from the mode string rather than an option.
    for (const std::string bad :
         {"sampled_adaptive:64x", "sampled_adaptive:-1",
          "sampled_adaptive:+64",
          "sampled_adaptive:99999999999999999999999999"}) {
        const RunResult result =
            runCli("profile --workload npb-is --profiling " + bad +
                   " -o /dev/null");
        EXPECT_EQ(result.exitCode, 2) << bad;
        EXPECT_NE(result.output.find("sampled_adaptive"),
                  std::string::npos)
            << bad;
    }
}

TEST(CliTest, BadProfilingValueIsAUsageError)
{
    // Out-of-range rates and malformed modes must exit 2 with a
    // message, never trip an assertion inside ProfilingConfig.
    for (const std::string bad :
         {"sampled:0", "sampled:1.5", "sampled:-0.1", "sampled:abc",
          "sampled", "sampled_adaptive:0", "sampled_adaptive:junk",
          "bogus"}) {
        const RunResult result =
            runCli("profile --workload npb-is --profiling " + bad +
                   " -o /dev/null");
        EXPECT_EQ(result.exitCode, 2) << bad;
        EXPECT_NE(result.output.find("profiling"), std::string::npos)
            << bad;
    }

    // sweep shares the flag and the validation.
    const RunResult sweep = runCli(
        "sweep --workload npb-is --profiling sampled:2 -o /dev/null");
    EXPECT_EQ(sweep.exitCode, 2);
}

TEST(CliTest, HelpDocumentsTraceWorkloadsAndTraceCommands)
{
    const RunResult result = runCli("--help");
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_NE(result.output.find("trace:<path>"), std::string::npos);
    for (const std::string command : {"record", "ingest", "digest"})
        EXPECT_NE(result.output.find(command), std::string::npos)
            << command;
}

TEST(CliTest, UnknownWorkloadSchemeIsAUsageError)
{
    const RunResult result =
        runCli("profile --workload pinball:foo -o /dev/null");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("unknown workload scheme"),
              std::string::npos);
    EXPECT_NE(result.output.find("trace:<path>"), std::string::npos);

    const RunResult empty =
        runCli("profile --workload trace: -o /dev/null");
    EXPECT_EQ(empty.exitCode, 2);
}

TEST(CliTest, MissingTraceFileIsAUsageError)
{
    const RunResult result = runCli(
        "profile --workload trace:/nonexistent/x.bptrace -o /dev/null");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("does not exist"), std::string::npos);
}

TEST(CliTest, WorkloadParametersDoNotApplyToTraces)
{
    for (const std::string knob : {"--threads 4", "--scale 2.0",
                                   "--seed 7"}) {
        const RunResult result =
            runCli("profile --workload trace:x.bptrace " + knob +
                   " -o /dev/null");
        EXPECT_EQ(result.exitCode, 2) << knob;
        EXPECT_NE(result.output.find("do not apply"), std::string::npos)
            << knob;
    }
}

TEST(CliTest, CorruptTraceFileIsARuntimeFailure)
{
    const std::string path = ::testing::TempDir() + "cli_garbage.bptrace";
    std::FILE *file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    // Long enough to pass the minimum-size check and fail on magic.
    const char junk[] = "this is not a trace file, not even close — "
                        "it only exists to be rejected by the reader";
    std::fwrite(junk, 1, sizeof(junk), file);
    std::fclose(file);

    const RunResult replay =
        runCli("profile --workload trace:" + path + " -o /dev/null");
    EXPECT_EQ(replay.exitCode, 1);
    EXPECT_NE(replay.output.find("fatal"), std::string::npos);

    const RunResult ingest = runCli("ingest --trace " + path);
    EXPECT_EQ(ingest.exitCode, 1);
    EXPECT_NE(ingest.output.find("not a bptrace file"),
              std::string::npos);

    // A missing trace given to ingest is a runtime failure too: the
    // trace is the object under inspection, like a missing artifact.
    const RunResult missing =
        runCli("ingest --trace /nonexistent/x.bptrace");
    EXPECT_EQ(missing.exitCode, 1);

    std::remove(path.c_str());
}

TEST(CliTest, ByteSizeOptionsRejectMalformedValues)
{
    // One strict parser backs --memory-budget and record's --buffer:
    // negative numbers, overflow, and trailing junk all exit 2
    // (strtoull would have read "-1" as 2^64 - 1).
    for (const std::string bad : {"-1", "0", "12X", "4M2", "", "k",
                                  "99999999999999999999", "16777216T"}) {
        const RunResult budget = runCli(
            "analyze --profile x.bp --streaming yes --memory-budget '" +
            bad + "' -o /dev/null");
        EXPECT_EQ(budget.exitCode, 2) << "--memory-budget " << bad;
        EXPECT_NE(budget.output.find("--memory-budget"),
                  std::string::npos)
            << bad;

        const RunResult buffer =
            runCli("record --workload npb-is --buffer '" + bad +
                   "' -o /dev/null");
        EXPECT_EQ(buffer.exitCode, 2) << "--buffer " << bad;
    }
}

TEST(CliTest, RuntimeFailuresExitOne)
{
    // A missing artifact is a runtime failure, not a usage error.
    const RunResult missing = runCli(
        "analyze --profile /nonexistent/x.profile.bp -o /dev/null");
    EXPECT_EQ(missing.exitCode, 1);
    EXPECT_NE(missing.output.find("fatal"), std::string::npos);

    const RunResult report = runCli(
        "report --analysis /nonexistent/x.analysis.bp --result y.bp");
    EXPECT_EQ(report.exitCode, 1);
}

/** @return the bytes of @p path ("" when unreadable). */
std::string
readFile(const std::string &path)
{
    std::string bytes;
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return bytes;
    std::array<char, 4096> buffer;
    size_t n;
    while ((n = fread(buffer.data(), 1, buffer.size(), file)) > 0)
        bytes.append(buffer.data(), n);
    std::fclose(file);
    return bytes;
}

TEST(CliTest, ForgedSnapshotsAreRecapturedNotReplayed)
{
    const std::string dir = ::testing::TempDir() + "cli_forged_";
    const std::string profile = dir + "p.bp", analysis = dir + "a.bp",
                      snapshots = dir + "s.bp", first = dir + "r1.bp",
                      second = dir + "r2.bp";
    ASSERT_EQ(runCli("profile --workload npb-is --threads 2 --scale 0.05 "
                     "-o " + profile).exitCode, 0);
    ASSERT_EQ(runCli("analyze --profile " + profile + " -o " + analysis)
                  .exitCode, 0);
    const std::string simulate =
        "simulate --analysis " + analysis + " --machine 2-core --snapshots " +
        snapshots + " -o ";
    ASSERT_EQ(runCli(simulate + first).exitCode, 0);
    const std::string captured = readFile(snapshots);
    ASSERT_FALSE(captured.empty());

    // An entry both written and LLC-dirty, re-checksummed: no capture
    // produces one, so the set is unreadable and is captured afresh.
    bp::SnapshotArtifact forged = bp::loadSnapshotArtifact(snapshots);
    ASSERT_FALSE(forged.snapshots.back()[0].empty());
    bp::MruEntry &entry = forged.snapshots.back()[0].front();
    entry.written = entry.llcDirty = true;
    bp::saveArtifact(snapshots, forged);

    const RunResult rerun = runCli(simulate + second);
    EXPECT_EQ(rerun.exitCode, 0);
    EXPECT_NE(rerun.output.find("unreadable"), std::string::npos)
        << rerun.output;
    EXPECT_EQ(readFile(second), readFile(first));
    EXPECT_EQ(readFile(snapshots), captured);

    for (const std::string &path :
         {profile, analysis, snapshots, first, second})
        std::remove(path.c_str());
}

/**
 * One capture serves every machine it covers: a two-socket machine
 * replays the single-socket capture file bit-identically to a fresh
 * capture of its own, and `bp digest` tells captures apart by the
 * facts that decide which machines they serve.
 */
TEST(CliTest, SnapshotFileServesEveryMachineItCovers)
{
    const std::string dir = ::testing::TempDir() + "cli_shared_";
    const std::string profile = dir + "p.bp", analysis = dir + "a.bp",
                      snapshots = dir + "s.bp", small = dir + "r2.bp",
                      fresh = dir + "r16.bp", reused = dir + "r16s.bp";
    ASSERT_EQ(runCli("profile --workload npb-is --threads 2 --scale 0.05 "
                     "-o " + profile).exitCode, 0);
    ASSERT_EQ(runCli("analyze --profile " + profile + " -o " + analysis)
                  .exitCode, 0);
    const std::string simulate = "simulate --analysis " + analysis;
    ASSERT_EQ(runCli(simulate + " --machine 2-core --snapshots " +
                     snapshots + " -o " + small).exitCode, 0);
    ASSERT_EQ(runCli(simulate + " --machine 16-core -o " + fresh).exitCode,
              0);
    const RunResult run = runCli(simulate + " --machine 16-core --snapshots " +
                                 snapshots + " -o " + reused);
    EXPECT_EQ(run.exitCode, 0);
    EXPECT_NE(run.output.find("reusing MRU snapshots"), std::string::npos)
        << run.output;
    EXPECT_EQ(readFile(reused), readFile(fresh));

    const bp::SnapshotArtifact captured = bp::loadSnapshotArtifact(snapshots);
    ASSERT_FALSE(captured.evicted);
    ASSERT_LT(captured.highWaterLines, captured.capacityLines);
    const std::string digest = runCli("digest --artifact " + snapshots).output;
    bp::SnapshotArtifact higher = captured;
    ++higher.highWaterLines;  // still consistent, but serves fewer
    bp::saveArtifact(snapshots, higher);
    const RunResult changed = runCli("digest --artifact " + snapshots);
    EXPECT_EQ(changed.exitCode, 0);
    EXPECT_NE(changed.output, digest);

    for (const std::string &path :
         {profile, analysis, snapshots, small, fresh, reused})
        std::remove(path.c_str());
}

} // namespace
