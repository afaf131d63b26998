/**
 * @file
 * pipeline_bench — the end-to-end BarrierPoint pipeline benchmark.
 *
 * One process runs one named workload for a fixed wall-clock budget.
 * Every number is taken from outside the library, by timing calls
 * into its public functions:
 *
 *   warm-up (untimed): set-up, profiles() and analysis() on seed N
 *   untraced study (repeated until the budget is spent; study 1
 *   repeats study 0's input, study k >= 2 runs seed N+k-1):
 *     set-up      make the input files, construct the workload, and
 *                 construct the Experiment with its pool
 *     one-time    Experiment::profiles() + analysis()
 *     sampled     per machine: snapshots(m) + simulate(m, MruReplay)
 *     reference   per machine: reference(m)
 *     then the output checks (and, on dse-cg, a second session that
 *     must read every stage back from the artifact directory)
 *
 *   traced run (--trace 1): studies 0 and 1 untraced, study 1 as the
 *     baseline, then
 *     the same pipeline driven stage by stage through the pipeline.h
 *     kernels, MultiCoreSim, TraceWriter/TraceReader and the artifact
 *     functions, with a span around every call (tracer.h). Its results
 *     must equal the untraced study's bit for bit.
 *
 * Usage:
 *   pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
 *                  --workdir DIR [--trace-out FILE]
 *
 * Prints one JSON object on stdout holding the raw samples and counts;
 * perfbench/run.py turns them into the benchmark's metrics. Every
 * stage call is one operation; one that throws or fails its output
 * check counts as failed and is reported on stderr.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/barrierpoint.h"
#include "src/trace_io/trace_workload.h"
#include "src/trace_io/trace_writer.h"
#include "tracer.h"

namespace {

using namespace bp;
using perfbench::now;
using perfbench::processCpuSeconds;
using perfbench::Tracer;
using Scope = perfbench::Tracer::Scope;
namespace fs = std::filesystem;

/**
 * A benchmark workload: which registered workload it runs, on which
 * machines, and through which paths. README.md gives the reason for
 * each choice.
 */
struct WorkloadDef
{
    const char *name;
    const char *source;                 ///< registry workload
    std::vector<const char *> machines;
    bool replay;      ///< record in set-up, replay as trace:<path>
    bool streaming;   ///< streaming analysis with a small memory budget
    bool artifacts;   ///< fresh artifact directory + second session
    unsigned setupReps;  ///< set-ups per study (median is reported)
};

const WorkloadDef kWorkloads[] = {
    {"dse-cg", "npb-cg", {"8-core", "32-core"}, false, false, true, 256},
    {"regions-sp", "npb-sp", {"8-core"}, false, false, false, 256},
    {"replay-stream-sp", "npb-sp", {"8-core"}, true, true, false, 3},
};

/**
 * Pool executors per Experiment. With more than one, the pool's
 * fine-grained fan-out made the parallel stages swing by up to 4x with
 * the host's CPU steal, far beyond any bound the benchmark can carry
 * (README.md, "Known gaps").
 */
constexpr unsigned kPoolWorkers = 1;

constexpr unsigned kSimThreads = 8;
constexpr double kScale = 1.0;

/**
 * A budget meant to make the points spill (the 64 KB - 1 MB range). The analyzer floors
 * any budget at 1 MB, and npb-sp's 3,601 15-dim points (432 KB) fit in
 * half of that, so at scale 1 they stay in RAM: core.spill_bytes reads
 * 0 (README.md, "Known gaps"). The budget still shrinks the mini-batch
 * and reservoir sizes, which is what moves the streaming answer.
 */
constexpr uint64_t kStreamingBudgetBytes = 256 << 10;

struct Ops
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;

    /** Run one operation; @p fn returns false when its check fails. */
    template <typename F>
    bool run(const std::string &what, F &&fn)
    {
        ++attempted;
        std::string why;
        try {
            if (fn())
                return true;
            why = "output check failed";
        } catch (const std::exception &error) {
            why = error.what();
        }
        ++failed;
        failures.push_back(what + ": " + why);
        std::fprintf(stderr, "pipeline_bench: FAILED %s: %s\n", what.c_str(),
                     why.c_str());
        return false;
    }
};

// ------------------------------------------------------ bitwise equality

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
sameEstimate(const Estimate &a, const Estimate &b)
{
    return sameBits(a.totalCycles, b.totalCycles) &&
           sameBits(a.totalInstructions, b.totalInstructions) &&
           sameBits(a.dramAccesses, b.dramAccesses) &&
           sameBits(a.llcMisses, b.llcMisses);
}

bool
finiteEstimate(const Estimate &e)
{
    return std::isfinite(e.totalCycles) &&
           std::isfinite(e.totalInstructions) &&
           std::isfinite(e.dramAccesses) && std::isfinite(e.llcMisses);
}

bool
sameMem(const MemStats &a, const MemStats &b)
{
    return a.accesses == b.accesses && a.l1Hits == b.l1Hits &&
           a.l2Hits == b.l2Hits && a.l3Hits == b.l3Hits &&
           a.remoteHits == b.remoteHits && a.dramReads == b.dramReads &&
           a.dramWrites == b.dramWrites &&
           a.invalidations == b.invalidations && a.upgrades == b.upgrades &&
           a.llcMisses == b.llcMisses;
}

bool
sameStats(const std::vector<RegionStats> &a, const std::vector<RegionStats> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].regionIndex != b[i].regionIndex ||
            a[i].instructions != b[i].instructions ||
            !sameBits(a[i].cycles, b[i].cycles) ||
            !sameBits(a[i].startCycle, b[i].startCycle) ||
            a[i].mispredicts != b[i].mispredicts || !sameMem(a[i].mem, b[i].mem))
            return false;
    }
    return true;
}

bool
sameAnalysis(const BarrierPointAnalysis &a, const BarrierPointAnalysis &b)
{
    if (a.chosenK != b.chosenK || a.points.size() != b.points.size() ||
        a.regionToPoint != b.regionToPoint ||
        a.regionInstructions != b.regionInstructions)
        return false;
    for (size_t i = 0; i < a.points.size(); ++i) {
        const BarrierPoint &p = a.points[i], &q = b.points[i];
        if (p.region != q.region || p.cluster != q.cluster ||
            !sameBits(p.multiplier, q.multiplier) ||
            !sameBits(p.weightFraction, q.weightFraction) ||
            p.instructions != q.instructions || p.significant != q.significant)
            return false;
    }
    return true;
}

bool
sameSnapshots(const MruSnapshotSet &a, const MruSnapshotSet &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].size() != b[i].size())
            return false;
        for (size_t c = 0; c < a[i].size(); ++c) {
            if (a[i][c].size() != b[i][c].size())
                return false;
            for (size_t e = 0; e < a[i][c].size(); ++e) {
                const MruEntry &x = a[i][c][e], &y = b[i][c][e];
                if (x.line != y.line || x.written != y.written ||
                    x.llcDirty != y.llcDirty)
                    return false;
            }
        }
    }
    return true;
}

void
addMem(MemStats &sum, const MemStats &s)
{
    sum.accesses += s.accesses;
    sum.l1Hits += s.l1Hits;
    sum.l2Hits += s.l2Hits;
    sum.l3Hits += s.l3Hits;
    sum.remoteHits += s.remoteHits;
    sum.dramReads += s.dramReads;
    sum.dramWrites += s.dramWrites;
    sum.invalidations += s.invalidations;
    sum.upgrades += s.upgrades;
    sum.llcMisses += s.llcMisses;
}

uint64_t
snapshotLines(const MruSnapshotSet &set)
{
    uint64_t lines = 0;
    for (const auto &point : set)
        for (const auto &core : point)
            lines += core.size();
    return lines;
}

double
errorPct(const Estimate &estimate, const RunResult &reference)
{
    const double ref = reference.totalCycles();
    return std::fabs(estimate.totalCycles - ref) / ref * 100.0;
}

/** name -> (size, mtime) of every file in @p dir. */
std::map<std::string, std::pair<uintmax_t, fs::file_time_type>>
listFiles(const std::string &dir)
{
    std::map<std::string, std::pair<uintmax_t, fs::file_time_type>> out;
    for (const auto &entry : fs::directory_iterator(dir))
        out[entry.path().filename().string()] = {entry.file_size(),
                                                 entry.last_write_time()};
    return out;
}

// ------------------------------------------------------------ the bench

struct MachineOutcome
{
    MachineConfig machine;
    double sampledSeconds = 0.0;
    double referenceSeconds = 0.0;
    std::vector<RegionStats> pointStats;
    Estimate estimate;
    RunResult reference;
};

/** One untraced study: set-up, the three stage groups, the checks. */
struct Study
{
    bool complete = false;
    std::vector<double> setupSeconds;
    double onetime = 0.0, sampled = 0.0, reference = 0.0;
    double cpuOnetime = 0.0, cpuSampled = 0.0, cpuReference = 0.0;
    BarrierPointAnalysis analysis;
    std::vector<MachineOutcome> machines;
    double errorPct = 0.0;  ///< max over machines
};

struct Bench
{
    const WorkloadDef *def = nullptr;
    uint64_t seed = 12345;
    std::string workdir;
    std::vector<MachineConfig> machines;
    Ops ops;

    /** Parameters of the input with workload seed @p input_seed. */
    static WorkloadParams params(uint64_t input_seed)
    {
        WorkloadParams p;
        p.threads = kSimThreads;
        p.scale = kScale;
        p.seed = input_seed;
        return p;
    }

    std::string path(const std::string &leaf) const
    {
        return (fs::path(workdir) / leaf).string();
    }

    StreamingConfig streaming() const
    {
        StreamingConfig s;
        s.enabled = def->streaming;
        s.memoryBudgetBytes = kStreamingBudgetBytes;
        s.spillDir = workdir;
        return s;
    }

    Experiment::Config config(const std::string &tag) const
    {
        Experiment::Config c;
        if (def->artifacts)
            c.artifactDir = path(tag + ".artifacts");
        c.streaming = streaming();
        return c;
    }

    /** Everything before the first stage. */
    std::unique_ptr<Experiment> setUp(const std::string &tag,
                                      uint64_t input_seed) const
    {
        std::unique_ptr<Workload> workload;
        if (def->replay) {
            const std::string trace = path(tag + ".bptrace");
            recordTrace(*makeWorkload(def->source, params(input_seed)), trace);
            workload = makeTraceWorkload(trace);
        } else {
            workload = makeWorkload(def->source, params(input_seed));
        }
        return std::make_unique<Experiment>(std::move(workload), config(tag),
                                            ExecutionContext(kPoolWorkers));
    }

    static uint64_t recordTrace(const Workload &source, const std::string &path)
    {
        TraceWriter writer(path, source.threadCount());
        for (unsigned r = 0; r < source.regionCount(); ++r)
            writer.appendRegion(source.generateRegion(r));
        writer.close();
        return writer.fileBytes();
    }

    void warmUp();
    Study study(unsigned iteration, uint64_t input_seed);
    void checkRepeat(const Study &repeat, const Study &first);
    void secondSession(Experiment &first, const Study &s,
                       const std::string &tag);
    std::map<std::string, double> traced(const Study &baseline,
                                         Tracer &tracer);
};

/**
 * Run the one-time stage once, untimed, before the first timed study.
 * It costs a twentieth of a full study on dse-cg, where a full untimed
 * study would cost one of the four to six timed ones.
 */
void
Bench::warmUp()
{
    ops.run("warm-up", [&] {
        const bool ok = !setUp("warmup", seed)->analysis().points.empty();
        fs::remove(path("warmup.bptrace"));
        fs::remove_all(path("warmup.artifacts"));
        return ok;
    });
}

Study
Bench::study(unsigned iteration, uint64_t input_seed)
{
    Study s;
    const std::string tag = "study" + std::to_string(iteration);
    std::unique_ptr<Experiment> exp;
    for (unsigned rep = 0; rep < def->setupReps; ++rep) {
        exp.reset();
        fs::remove(path(tag + ".bptrace"));
        fs::remove_all(path(tag + ".artifacts"));
        const double t0 = now();
        if (!ops.run("set-up", [&] {
                exp = setUp(tag, input_seed);
                return true;
            }))
            return s;
        s.setupSeconds.push_back(now() - t0);
    }

    double t0 = now(), c0 = processCpuSeconds();
    if (!def->streaming &&
        !ops.run("profiles", [&] { return !exp->profiles().empty(); }))
        return s;
    if (!ops.run("analysis", [&] { return !exp->analysis().points.empty(); }))
        return s;
    s.onetime = now() - t0;
    s.cpuOnetime = processCpuSeconds() - c0;

    t0 = now(), c0 = processCpuSeconds();
    for (const MachineConfig &m : machines) {
        MachineOutcome out;
        out.machine = m;
        const double tm = now();
        if (!ops.run("snapshots " + m.name,
                     [&] { return !exp->snapshots(m).empty(); }) ||
            !ops.run("simulate " + m.name, [&] {
                return !exp->simulate(m, WarmupPolicy::MruReplay)
                            .stats.empty();
            }))
            return s;
        out.sampledSeconds = now() - tm;
        s.machines.push_back(std::move(out));
    }
    s.sampled = now() - t0;
    s.cpuSampled = processCpuSeconds() - c0;

    t0 = now(), c0 = processCpuSeconds();
    for (MachineOutcome &out : s.machines) {
        const double tm = now();
        if (!ops.run("reference " + out.machine.name, [&] {
                return exp->reference(out.machine).regions.size() ==
                       exp->workload().regionCount();
            }))
            return s;
        out.referenceSeconds = now() - tm;
    }
    s.reference = now() - t0;
    s.cpuReference = processCpuSeconds() - c0;

    // Output checks (untimed). error_pct is a metric, never a check.
    s.analysis = exp->analysis();
    for (MachineOutcome &out : s.machines) {
        const SimulationResult &r = exp->simulate(out.machine);
        out.pointStats = r.stats;
        out.estimate = r.estimate;
        out.reference = exp->reference(out.machine);
        ops.run("estimate check " + out.machine.name, [&] {
            return finiteEstimate(r.estimate) &&
                   sameEstimate(r.estimate, reconstruct(s.analysis, r.stats));
        });
        s.errorPct = std::max(s.errorPct, errorPct(out.estimate, out.reference));
    }
    if (def->replay && iteration == 0) {
        ops.run("verifyAll", [&] {
            dynamic_cast<const TraceWorkload &>(exp->workload())
                .reader()
                .verifyAll();
            return true;
        });
    }
    if (def->artifacts)
        secondSession(*exp, s, tag);
    s.complete = true;

    exp.reset();
    fs::remove(path(tag + ".bptrace"));
    fs::remove_all(path(tag + ".artifacts"));
    return s;
}

/** Reopen the artifact directory: every stage must be a bit-exact hit. */
void
Bench::secondSession(Experiment &first, const Study &s, const std::string &tag)
{
    const std::string dir = path(tag + ".artifacts");
    const auto before = listFiles(dir);
    Experiment second(first.spec(), config(tag),
                      ExecutionContext(kPoolWorkers));
    ops.run("session 2 profiles", [&] {
        return second.profiles().size() == first.profiles().size();
    });
    ops.run("session 2 analysis",
            [&] { return sameAnalysis(second.analysis(), s.analysis); });
    for (const MachineOutcome &out : s.machines) {
        const MachineConfig &m = out.machine;
        ops.run("session 2 snapshots " + m.name, [&] {
            return sameSnapshots(second.snapshots(m), first.snapshots(m));
        });
        ops.run("session 2 simulate " + m.name, [&] {
            const SimulationResult &r = second.simulate(m);
            return sameStats(r.stats, out.pointStats) &&
                   sameEstimate(r.estimate, out.estimate);
        });
        ops.run("session 2 reference " + m.name, [&] {
            return sameStats(second.reference(m).regions,
                             out.reference.regions);
        });
    }
    // A stage that missed its artifact recomputes and rewrites it.
    ops.run("session 2 read every artifact back",
            [&] { return !before.empty() && listFiles(dir) == before; });
}

/** A study of the same input must reproduce the first bit for bit. */
void
Bench::checkRepeat(const Study &s, const Study &first)
{
    ops.run("determinism: study 1 repeats study 0", [&] {
        if (!sameBits(s.errorPct, first.errorPct) ||
            !sameAnalysis(s.analysis, first.analysis) ||
            s.machines.size() != first.machines.size())
            return false;
        for (size_t i = 0; i < s.machines.size(); ++i) {
            const MachineOutcome &a = s.machines[i], &b = first.machines[i];
            if (!sameEstimate(a.estimate, b.estimate) ||
                !sameStats(a.pointStats, b.pointStats) ||
                !sameStats(a.reference.regions, b.reference.regions))
                return false;
        }
        return true;
    });
}

// ------------------------------------------------------------ traced run

/** Forwards to another workload, with a span around generateRegion(). */
class TracedWorkload : public Workload
{
  public:
    TracedWorkload(const Workload &inner, Tracer &tracer, const char *span,
                   const char *layer)
        : Workload(inner.name(), inner.params()), inner_(inner),
          tracer_(tracer), span_(span), layer_(layer)
    {}

    unsigned regionCount() const override { return inner_.regionCount(); }
    uint64_t contentHash() const override { return inner_.contentHash(); }

    RegionTrace generateRegion(unsigned index) const override
    {
        Scope scope(tracer_, span_, layer_);
        return inner_.generateRegion(index);
    }

  private:
    const Workload &inner_;
    Tracer &tracer_;
    const char *span_;
    const char *layer_;
};

/**
 * Times each region's profile as the gap between consecutive
 * deliveries, then hands it on: to a vector (batch) or to the
 * streaming analyzer, whose consume() gets its own span.
 */
class TimingSink : public RegionProfileSink
{
  public:
    TimingSink(Tracer &tracer, StreamingAnalyzer *analyzer)
        : tracer_(tracer), analyzer_(analyzer), last_(now())
    {}

    void consume(RegionProfile &&profile) override
    {
        regionSeconds.push_back(now() - last_);
        memOps += profile.memOps();
        if (analyzer_) {
            Scope scope(tracer_, "core.consume", "core");
            analyzer_->consume(std::move(profile));
        } else {
            profiles.push_back(std::move(profile));
        }
        last_ = now();
    }

    std::vector<RegionProfile> profiles;
    std::vector<double> regionSeconds;
    uint64_t memOps = 0;

  private:
    Tracer &tracer_;
    StreamingAnalyzer *analyzer_;
    double last_;
};

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t i = static_cast<size_t>(
        std::min<double>(v.size() - 1, std::ceil(p / 100.0 * v.size()) - 1));
    return v[i];
}

std::map<std::string, double>
Bench::traced(const Study &baseline, Tracer &tracer)
{
    std::map<std::string, double> m;
    const BarrierPointOptions options;  // Experiment's defaults
    std::unique_ptr<Workload> workload;
    std::optional<ExecutionContext> exec;
    const std::string tracePath = path("traced.bptrace");

    // Set-up.
    {
        Scope stage(tracer, "stage.setup", "stage");
        tracer.setStage(stage.id());
        std::unique_ptr<Workload> source =
            makeWorkload(def->source, params(seed));
        if (def->replay) {
            TracedWorkload gen(*source, tracer, "workloads.generate",
                               "workloads");
            Scope rec(tracer, "trace_io.record", "trace_io");
            m["trace_io.bytes"] = static_cast<double>(recordTrace(gen, tracePath));
        }
        if (def->replay) {
            Scope open(tracer, "trace_io.open", "trace_io");
            workload = makeTraceWorkload(tracePath);
        } else {
            workload = std::move(source);
        }
        Scope pool(tracer, "support.pool", "support");
        exec.emplace(kPoolWorkers);
    }
    const TracedWorkload w(*workload, tracer,
                           def->replay ? "trace_io.read" : "workloads.generate",
                           def->replay ? "trace_io" : "workloads");

    // One-time: profile, project, cluster/select.
    BarrierPointAnalysis analysis;
    std::vector<RegionProfile> profiles;
    const double onetimeStart = now();
    {
        Scope stage(tracer, "stage.onetime", "stage");
        tracer.setStage(stage.id());
        std::optional<StreamingAnalyzer> analyzer;
        if (def->streaming)
            analyzer.emplace(w.regionCount(), options, streaming(), *exec);
        TimingSink sink(tracer, analyzer ? &*analyzer : nullptr);
        double profileSeconds = 0.0;
        ops.run("traced profile", [&] {
            Scope span(tracer, "profile", "profile");
            tracer.setStage(span.id());  // parent of pool-side generation
            const double t0 = now();
            profileWorkloadToSink(w, options.profiling, sink, *exec);
            profileSeconds = now() - t0;
            return sink.regionSeconds.size() == w.regionCount();
        });
        tracer.setStage(stage.id());
        const double consume = tracer.totalSeconds("core.consume");
        m["profile.s"] = profileSeconds - consume;
        m["profile.regions"] = static_cast<double>(sink.regionSeconds.size());
        m["profile.mem_ops"] = static_cast<double>(sink.memOps);
        m["profile.region_us_p50"] = percentile(sink.regionSeconds, 50) * 1e6;
        m["profile.region_us_p99"] = percentile(sink.regionSeconds, 99) * 1e6;

        if (analyzer) {
            m["core.project_s"] = consume;
            m["core.spill_bytes"] = analyzer->spillsToDisk()
                ? static_cast<double>(analyzer->consumed() *
                                      options.clustering.dim * sizeof(double))
                : 0.0;
            ops.run("traced streaming finish", [&] {
                Scope span(tracer, "core.cluster", "core");
                analysis = analyzer->finish();
                return !analysis.points.empty();
            });
            m["core.cluster_s"] = tracer.totalSeconds("core.cluster");
            m["core.stream_s"] = profileSeconds + m["core.cluster_s"];
        } else {
            profiles = std::move(sink.profiles);
            std::vector<std::vector<double>> points;
            ops.run("traced projectProfiles", [&] {
                Scope span(tracer, "core.project", "core");
                points = projectProfiles(profiles, options.signature,
                                         options.clustering, *exec);
                return points.size() == profiles.size();
            });
            ops.run("traced cluster + select", [&] {
                Scope span(tracer, "core.cluster", "core");
                std::vector<uint64_t> instructions;
                std::vector<double> weights;
                for (const RegionProfile &p : profiles) {
                    instructions.push_back(p.instructions());
                    weights.push_back(static_cast<double>(p.instructions()));
                }
                analysis = selectBarrierPoints(
                    clusterSignatures(points, weights, options.clustering,
                                      &exec->pool()),
                    points, instructions, options.significance);
                return !analysis.points.empty();
            });
            m["core.project_s"] = tracer.totalSeconds("core.project");
            m["core.cluster_s"] = tracer.totalSeconds("core.cluster");
            m["core.spill_bytes"] = 0.0;
            m["core.stream_s"] = 0.0;
        }
        m["core.k"] = analysis.chosenK;
        m["core.barrierpoints"] = static_cast<double>(analysis.points.size());
        ops.run("traced analysis equals untraced",
                [&] { return sameAnalysis(analysis, baseline.analysis); });
    }
    const double onetime = now() - onetimeStart;
    if (analysis.points.empty())
        return m;

    // Sampled: snapshots once per capture capacity, then per point
    // exactly simulateBarrierPoint's steps, fanned out on the pool.
    std::map<std::pair<uint64_t, uint64_t>, MruSnapshotSet> sets;
    std::vector<std::vector<RegionStats>> pointStats;
    MemStats bpMem, refMem;
    double warmupLines = 0.0, detailUops = 0.0;
    const double sampledStart = now();
    {
        Scope stage(tracer, "stage.sampled", "stage");
        tracer.setStage(stage.id());
        for (const MachineConfig &machine : machines) {
            const auto key = std::make_pair(mruCapacityLines(machine),
                                            mruPrivateLines(machine));
            if (sets.count(key))
                continue;
            ops.run("traced captureAnalysisSnapshots " + machine.name, [&] {
                Scope span(tracer, "core.snapshot", "core");
                sets[key] = captureAnalysisSnapshots(w, machine, analysis);
                return sets[key].size() == analysis.points.size();
            });
        }
        for (size_t mi = 0; mi < machines.size(); ++mi) {
            const MachineConfig &machine = machines[mi];
            const MruSnapshotSet &snaps = sets[{mruCapacityLines(machine),
                                                mruPrivateLines(machine)}];
            warmupLines += static_cast<double>(snapshotLines(snaps));
            std::vector<RegionStats> stats;
            ops.run("traced barrierpoint simulation " + machine.name, [&] {
                stats = exec->pool().parallelMap<RegionStats>(
                    analysis.points.size(), [&](size_t j) {
                        std::unique_ptr<MultiCoreSim> sim;
                        {
                            Scope span(tracer, "sim.construct", "sim");
                            sim = std::make_unique<MultiCoreSim>(machine);
                        }
                        const RegionTrace trace =
                            w.generateRegion(analysis.points[j].region);
                        {
                            Scope span(tracer, "sim.warmup", "sim");
                            sim->warmupReplay(snaps.at(j));
                        }
                        {
                            Scope span(tracer, "sim.train", "sim");
                            sim->trainPredictors(trace);
                        }
                        Scope span(tracer, "sim.detail", "sim");
                        return sim->simulateRegion(trace);
                    });
                const MachineOutcome &base = baseline.machines.at(mi);
                return sameStats(stats, base.pointStats) &&
                       sameEstimate(reconstruct(analysis, stats),
                                    base.estimate);
            });
            for (const RegionStats &st : stats) {
                detailUops += static_cast<double>(st.instructions);
                addMem(bpMem, st.mem);
            }
            pointStats.push_back(std::move(stats));
        }
    }
    const double sampled = now() - sampledStart;
    uint64_t setLines = 0;
    for (const auto &[key, set] : sets)
        setLines += snapshotLines(set);
    m["core.snapshot_s"] = tracer.totalSeconds("core.snapshot");
    m["core.snapshot_sets"] = static_cast<double>(sets.size());
    m["core.snapshot_lines"] = static_cast<double>(setLines);
    m["sim.warmup_s"] = tracer.totalSeconds("sim.warmup");
    m["sim.warmup_lines"] = warmupLines;
    m["sim.warmup_ns_per_line"] =
        warmupLines > 0 ? m["sim.warmup_s"] * 1e9 / warmupLines : 0.0;
    m["sim.train_s"] = tracer.totalSeconds("sim.train");
    m["sim.detail_s"] = tracer.totalSeconds("sim.detail");
    m["sim.detail_uops"] = detailUops;

    // Reference: simulateFullRun's loop, one span per region.
    std::vector<RunResult> references;
    double referenceUops = 0.0;
    const double referenceStart = now();
    {
        Scope stage(tracer, "stage.reference", "stage");
        tracer.setStage(stage.id());
        for (size_t mi = 0; mi < machines.size(); ++mi) {
            RunResult run;
            ops.run("traced reference " + machines[mi].name, [&] {
                std::unique_ptr<MultiCoreSim> sim;
                {
                    Scope span(tracer, "sim.construct", "sim");
                    sim = std::make_unique<MultiCoreSim>(machines[mi]);
                }
                double clock = 0.0;
                for (unsigned r = 0; r < w.regionCount(); ++r) {
                    const RegionTrace trace = w.generateRegion(r);
                    Scope span(tracer, "sim.reference", "sim");
                    RegionStats st = sim->simulateRegion(trace);
                    st.startCycle = clock;
                    clock += st.cycles;
                    run.regions.push_back(st);
                }
                return sameStats(run.regions,
                                 baseline.machines.at(mi).reference.regions);
            });
            for (const RegionStats &st : run.regions) {
                referenceUops += static_cast<double>(st.instructions);
                addMem(refMem, st.mem);
            }
            references.push_back(std::move(run));
        }
    }
    const double reference = now() - referenceStart;
    m["sim.reference_uops"] = referenceUops;
    const double refSim = tracer.totalSeconds("sim.reference");
    m["sim.reference_uops_per_s"] = refSim > 0 ? referenceUops / refSim : 0.0;

    // Artifacts: save every stage, then load each back (dse-cg only).
    double artifactSave = 0.0;
    m["core.artifact_save_s"] = m["core.artifact_load_s"] = 0.0;
    m["core.artifact_bytes"] = 0.0;
    if (def->artifacts) {
        Scope stage(tracer, "stage.artifacts", "stage");
        tracer.setStage(stage.id());
        const std::string dir = path("traced.artifacts");
        fs::create_directories(dir);
        const WorkloadSpec spec = WorkloadSpec::describe(*workload);
        const auto file = [&](const std::string &leaf) {
            return (fs::path(dir) / leaf).string();
        };
        const auto save = [&](const std::string &leaf, const auto &artifact) {
            ops.run("saveArtifact " + leaf, [&] {
                Scope span(tracer, "core.artifact_save", "core");
                saveArtifact(file(leaf), artifact);
                return true;
            });
        };
        ProfileArtifact pa{spec, options.profiling, profiles};
        save("profile", pa);
        save("analysis", AnalysisArtifact{spec, optionsHash(options), analysis});
        unsigned si = 0;
        for (const auto &[key, set] : sets)
            save("snapshots" + std::to_string(si++),
                 SnapshotArtifact{spec, key.first, key.second,
                                  analysis.pointRegions(), set});
        for (size_t mi = 0; mi < machines.size(); ++mi) {
            RunResultArtifact bpr{spec, machines[mi].name, "barrierpoints-mru",
                                  optionsHash(options), RunResult{}};
            bpr.result.regions = pointStats[mi];
            save("result" + std::to_string(mi), bpr);
            save("reference" + std::to_string(mi),
                 RunResultArtifact{spec, machines[mi].name, "reference", 0,
                                   references[mi]});
        }
        artifactSave = tracer.totalSeconds("core.artifact_save");

        const auto load = [&](const std::string &leaf, auto loader,
                              auto check) {
            ops.run("load artifact " + leaf, [&] {
                Scope span(tracer, "core.artifact_load", "core");
                return check(loader(file(leaf)));
            });
        };
        load("profile", loadProfileArtifact, [&](const ProfileArtifact &a) {
            if (a.workload != spec || a.profiles.size() != profiles.size())
                return false;
            for (size_t i = 0; i < profiles.size(); ++i)
                if (a.profiles[i].instructions() != profiles[i].instructions() ||
                    a.profiles[i].memOps() != profiles[i].memOps())
                    return false;
            return true;
        });
        load("analysis", loadAnalysisArtifact, [&](const AnalysisArtifact &a) {
            return sameAnalysis(a.analysis, analysis);
        });
        si = 0;
        for (const auto &[key, set] : sets)
            load("snapshots" + std::to_string(si++), loadSnapshotArtifact,
                 [&](const SnapshotArtifact &a) {
                     return sameSnapshots(a.snapshots, set);
                 });
        for (size_t mi = 0; mi < machines.size(); ++mi) {
            load("result" + std::to_string(mi), loadRunResultArtifact,
                 [&](const RunResultArtifact &a) {
                     return sameStats(a.result.regions, pointStats[mi]) &&
                            sameEstimate(reconstruct(analysis, a.result.regions),
                                         baseline.machines[mi].estimate);
                 });
            load("reference" + std::to_string(mi), loadRunResultArtifact,
                 [&](const RunResultArtifact &a) {
                     return sameStats(a.result.regions,
                                      references[mi].regions);
                 });
        }
        m["core.artifact_save_s"] = artifactSave;
        m["core.artifact_load_s"] = tracer.totalSeconds("core.artifact_load");
        double bytes = 0.0;
        for (const auto &entry : fs::directory_iterator(dir))
            bytes += static_cast<double>(entry.file_size());
        m["core.artifact_bytes"] = bytes;
    }

    // Dedicated single-layer passes over every region.
    {
        Scope stage(tracer, "stage.layers", "stage");
        tracer.setStage(stage.id());
        double uops = 0.0;
        if (def->replay) {
            const TraceReader &reader =
                dynamic_cast<const TraceWorkload &>(*workload).reader();
            double t0 = now();
            {
                Scope span(tracer, "trace_io.read_pass", "trace_io");
                for (uint64_t r = 0; r < reader.regionCount(); ++r)
                    uops += static_cast<double>(reader.readRegion(r).totalOps());
            }
            m["trace_io.read_s"] = now() - t0;
            t0 = now();
            ops.run("verifyAll", [&] {
                Scope span(tracer, "trace_io.verify", "trace_io");
                reader.verifyAll();
                return true;
            });
            m["trace_io.verify_s"] = now() - t0;
            m["trace_io.record_s"] = tracer.totalSeconds("trace_io.record");
            m["trace_io.open_s"] = tracer.totalSeconds("trace_io.open");
            m["trace_io.read_mb_per_s"] =
                m["trace_io.bytes"] / 1e6 / m["trace_io.read_s"];
            m["workloads.generate_s"] = tracer.totalSeconds("workloads.generate");
        } else {
            const double t0 = now();
            {
                Scope span(tracer, "workloads.pass", "workloads");
                for (unsigned r = 0; r < workload->regionCount(); ++r)
                    uops += static_cast<double>(
                        workload->generateRegion(r).totalOps());
            }
            m["workloads.generate_s"] = now() - t0;
            for (const char *k : {"trace_io.record_s", "trace_io.bytes",
                                  "trace_io.open_s", "trace_io.read_s",
                                  "trace_io.verify_s", "trace_io.read_mb_per_s"})
                m[k] = 0.0;
        }
        m["workloads.uops"] = uops;
    }

    const auto memsys = [&](const char *side, const MemStats &s) {
        const std::string p = std::string("memsys.") + side + ".";
        m[p + "accesses"] = static_cast<double>(s.accesses);
        m[p + "l1_hits"] = static_cast<double>(s.l1Hits);
        m[p + "l2_hits"] = static_cast<double>(s.l2Hits);
        m[p + "l3_hits"] = static_cast<double>(s.l3Hits);
        m[p + "remote_hits"] = static_cast<double>(s.remoteHits);
        m[p + "dram_accesses"] = static_cast<double>(s.dramAccesses());
        m[p + "llc_misses"] = static_cast<double>(s.llcMisses);
        m[p + "invalidations"] = static_cast<double>(s.invalidations);
    };
    memsys("bp", bpMem);
    memsys("ref", refMem);

    const auto support = [&](const char *stage, double cpu, double wall) {
        const std::string p = std::string("support.") + stage + ".";
        m[p + "cpu_s"] = cpu;
        m[p + "cpu_util"] = wall > 0 ? cpu / (wall * kPoolWorkers) : 0.0;
    };
    support("onetime", baseline.cpuOnetime, baseline.onetime);
    support("sampled", baseline.cpuSampled, baseline.sampled);
    support("reference", baseline.cpuReference, baseline.reference);

    const auto self = tracer.selfSecondsByLayer();
    for (const char *layer : {"stage", "support", "workloads", "trace_io",
                              "profile", "core", "sim"})
        m[std::string("self_s.") + layer] =
            self.count(layer) ? self.at(layer) : 0.0;
    const double untraced =
        baseline.onetime + baseline.sampled + baseline.reference;
    m["trace.overhead_pct"] =
        ((onetime + sampled + reference + artifactSave) / untraced - 1.0) * 100.0;
    m["trace.spans"] = static_cast<double>(tracer.spans().size());

    workload.reset();
    fs::remove(tracePath);
    fs::remove_all(path("traced.artifacts"));
    return m;
}

// ------------------------------------------------------------ output

void
printArray(const char *key, const std::vector<double> &values, bool comma = true)
{
    std::printf("\"%s\":[", key);
    for (size_t i = 0; i < values.size(); ++i)
        std::printf("%s%.17g", i ? "," : "", values[i]);
    std::printf("]%s", comma ? "," : "");
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "pipeline_bench: %s\nusage: pipeline_bench --workload NAME "
                 "--seed N --seconds S --trace 0|1 --workdir DIR "
                 "[--trace-out FILE]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workloadName, workdir, traceOut;
    uint64_t seed = 12345;
    double seconds = 10.0;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        if (arg == "--workload")
            workloadName = value;
        else if (arg == "--seed")
            seed = std::stoull(value);
        else if (arg == "--seconds")
            seconds = std::stod(value);
        else if (arg == "--trace")
            trace = value == "1";
        else if (arg == "--workdir")
            workdir = value;
        else if (arg == "--trace-out")
            traceOut = value;
        else
            usage(("unknown argument " + arg).c_str());
    }

    Bench bench;
    for (const WorkloadDef &def : kWorkloads)
        if (workloadName == def.name)
            bench.def = &def;
    if (!bench.def)
        usage(("unknown workload '" + workloadName + "'").c_str());
    if (workdir.empty())
        usage("--workdir is required");
    fs::create_directories(workdir);
    bench.seed = seed;
    bench.workdir = workdir;
    for (const char *name : bench.def->machines)
        bench.machines.push_back(MachineConfig::byName(name));

    // An untimed warm-up, then untraced studies until the budget is
    // spent; every study is timed. Study 1 runs the same input as study
    // 0, seed N, and must repeat it bit for bit; a traced run takes it
    // as its untraced baseline. Study k >= 2 runs input seed N+k-1, so a
    // run's medians span several inputs and do not hang on where one
    // seed happens to put its barrierpoints.
    const double deadline = now() + seconds;
    bench.warmUp();
    std::vector<Study> studies;
    do {
        const unsigned k = static_cast<unsigned>(studies.size());
        studies.push_back(bench.study(k, k < 2 ? seed : seed + k - 1));
        if (!studies.back().complete)
            break;
        if (k == 1)
            bench.checkRepeat(studies[1], studies[0]);
    } while (studies.size() < 2 || (!trace && now() < deadline));

    std::map<std::string, double> layers;
    if (trace && studies.back().complete) {
        Tracer tracer(std::string(bench.def->name) + "-seed" +
                      std::to_string(seed));
        layers = bench.traced(studies.back(), tracer);
        if (!traceOut.empty() && !tracer.writeChromeTrace(traceOut))
            bench.ops.run("write trace " + traceOut, [] { return false; });
    }

    std::vector<double> setup, onetime, sampled, reference;
    std::vector<std::vector<double>> sampledBy(bench.machines.size()),
        referenceBy(bench.machines.size());
    for (const Study &s : studies) {
        if (!s.complete)
            continue;
        setup.insert(setup.end(), s.setupSeconds.begin(), s.setupSeconds.end());
        onetime.push_back(s.onetime);
        sampled.push_back(s.sampled);
        reference.push_back(s.reference);
        for (size_t mi = 0; mi < s.machines.size(); ++mi) {
            sampledBy[mi].push_back(s.machines[mi].sampledSeconds);
            referenceBy[mi].push_back(s.machines[mi].referenceSeconds);
        }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::printf("{\"workload\":\"%s\",\"seed\":%llu,", bench.def->name,
                static_cast<unsigned long long>(seed));
    std::printf("\"attempted\":%llu,\"failed\":%llu,\"failures\":[",
                static_cast<unsigned long long>(bench.ops.attempted),
                static_cast<unsigned long long>(bench.ops.failed));
    for (size_t i = 0; i < bench.ops.failures.size(); ++i) {
        std::string f = bench.ops.failures[i];
        std::replace(f.begin(), f.end(), '"', '\'');
        std::replace(f.begin(), f.end(), '\\', '/');
        std::printf("%s\"%s\"", i ? "," : "", f.c_str());
    }
    std::printf("],");
    printArray("setup_s", setup);
    printArray("onetime_s", onetime);
    printArray("sampled_sim_s", sampled);
    printArray("reference_s", reference);
    const Study &first = studies.front();
    std::printf("\"error_pct\":%.17g,\"peak_rss_mb\":%.17g,\"machines\":[",
                first.errorPct, ru.ru_maxrss / 1024.0);
    for (size_t mi = 0; mi < first.machines.size(); ++mi) {
        const MachineOutcome &out = first.machines[mi];
        std::printf("%s{\"name\":\"%s\",\"error_pct\":%.17g,", mi ? "," : "",
                    out.machine.name.c_str(),
                    errorPct(out.estimate, out.reference));
        printArray("sampled_sim_s", sampledBy[mi]);
        printArray("reference_s", referenceBy[mi], false);
        std::printf("}");
    }
    std::printf("],\"layers\":{");
    bool firstLayer = true;
    for (const auto &[name, value] : layers) {
        std::printf("%s\"%s\":%.17g", firstLayer ? "" : ",", name.c_str(), value);
        firstLayer = false;
    }
    std::printf("}}\n");
    return 0;
}
