#include "src/core/experiment.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/support/serialize.h"

namespace bp {

namespace {

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Workload names become file-name prefixes; keep them portable. */
std::string
sanitizeName(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_';
        if (!ok)
            c = '-';
    }
    return out;
}

/**
 * The analysis artifact key: the options hash, with the streaming
 * configuration folded in when streaming mode is on — a streaming
 * analysis is a different result than a batch one (mini-batch
 * centroids vs full Lloyd), so the two must never share a cache slot.
 */
uint64_t
analysisKeyHash(const Experiment::Config &config)
{
    const uint64_t options = optionsHash(config.options);
    if (!config.streaming.enabled)
        return options;
    return hashMix(options ^ streamingHash(config.streaming));
}

/**
 * Save @p artifact with @p member lent to its @p field for the
 * duration of the write — no copy of the (potentially large) stage
 * data, and the memoized member is restored on every path, including
 * a throwing save.
 */
template <typename Artifact, typename T>
void
saveLending(const std::string &path, Artifact &artifact, T &member,
            T Artifact::*field)
{
    artifact.*field = std::move(member);
    try {
        saveArtifact(path, artifact);
    } catch (...) {
        member = std::move(artifact.*field);
        throw;
    }
    member = std::move(artifact.*field);
}

} // namespace

Experiment::Experiment(WorkloadSpec spec, Config config,
                       ExecutionContext exec)
    : Experiment(spec.instantiate(), std::move(config), std::move(exec))
{}

Experiment::Experiment(std::unique_ptr<Workload> workload, Config config,
                       ExecutionContext exec)
    : Experiment(std::move(workload), nullptr, std::move(config),
                 std::move(exec))
{}

Experiment::Experiment(const Workload &workload, Config config,
                       ExecutionContext exec)
    : Experiment(nullptr, &workload, std::move(config), std::move(exec))
{}

Experiment::Experiment(std::unique_ptr<Workload> owned,
                       const Workload *borrowed, Config config,
                       ExecutionContext exec)
    : owned_(std::move(owned)), workload_(owned_ ? owned_.get() : borrowed),
      // Re-describe rather than keep a caller's spec: describe() is
      // canonical (trace workloads pin scale/seed and take threads
      // from the file; contentHash is filled in), so artifact names
      // and embedded specs never depend on how the caller spelled the
      // parameters.
      spec_(WorkloadSpec::describe(*workload_)), config_(std::move(config)),
      exec_(std::move(exec)), optionsHash_(analysisKeyHash(config_)),
      profilingHash_(bp::profilingHash(config_.options.profiling)),
      stem_(sanitizeName(spec_.name) + "-" + hex16(spec_.hash()))
{}

std::string
Experiment::machineKey(const MachineConfig &machine)
{
    return sanitizeName(machine.name) + "-" + hex16(configHash(machine));
}

Experiment::ResultKey
Experiment::resultKey(const MachineConfig &machine, WarmupPolicy policy)
{
    return {machineKey(machine), static_cast<int>(policy)};
}

void
Experiment::requireMachineFits(const MachineConfig &machine) const
{
    const unsigned threads = workload_->threadCount();
    if (machine.numCores < threads)
        fatal("machine %s has %u cores but workload %s runs %u threads; "
              "pick a machine with >= %u cores or re-instantiate the "
              "workload at a narrower width",
              machine.name.c_str(), machine.numCores, spec_.name.c_str(),
              threads, threads);
}

std::string
Experiment::artifactPath(const std::string &leaf) const
{
    if (config_.artifactDir.empty())
        return {};
    return (std::filesystem::path(config_.artifactDir) / leaf).string();
}

std::string
Experiment::profilePath() const
{
    return artifactPath(stem_ + "-p" + hex16(profilingHash_) +
                        ".profile.bp");
}

std::string
Experiment::analysisPath() const
{
    return artifactPath(stem_ + "-o" + hex16(optionsHash_) +
                        ".analysis.bp");
}

std::string
Experiment::resultPath(const MachineConfig &machine,
                       WarmupPolicy policy) const
{
    return artifactPath(stem_ + "-o" + hex16(optionsHash_) + "-m" +
                        machineKey(machine) + "-" +
                        warmupPolicyName(policy) + ".result.bp");
}

std::string
Experiment::referencePath(const MachineConfig &machine) const
{
    return artifactPath(stem_ + "-m" + machineKey(machine) +
                        ".reference.bp");
}

void
Experiment::ensureArtifactDir()
{
    if (artifactDirReady_ || config_.artifactDir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(config_.artifactDir, ec);
    if (ec)
        fatal("cannot create artifact directory '%s': %s",
              config_.artifactDir.c_str(), ec.message().c_str());
    artifactDirReady_ = true;
}

// ------------------------------------------------------------- profiles

bool
Experiment::tryLoadProfiles(const std::string &path)
{
    if (!fileExists(path))
        return false;
    try {
        ProfileArtifact artifact = loadProfileArtifact(path);
        if (artifact.workload != spec_) {
            warn("profile artifact %s was produced for a different "
                 "workload spec; recomputing",
                 path.c_str());
            return false;
        }
        if (artifact.profiling != config_.options.profiling) {
            warn("profile artifact %s was collected under profiling "
                 "mode %s but this experiment wants %s; recomputing",
                 path.c_str(), artifact.profiling.describe().c_str(),
                 config_.options.profiling.describe().c_str());
            return false;
        }
        if (artifact.profiles.size() != workload_->regionCount()) {
            warn("profile artifact %s holds %zu regions but the workload "
                 "has %u; recomputing",
                 path.c_str(), artifact.profiles.size(),
                 workload_->regionCount());
            return false;
        }
        profiles_ = std::move(artifact.profiles);
        return true;
    } catch (const SerializeError &error) {
        warn("profile artifact %s is unreadable (%s); recomputing",
             path.c_str(), error.what());
        return false;
    }
}

const std::vector<RegionProfile> &
Experiment::profiles()
{
    if (profiles_)
        return *profiles_;
    const std::string path = profilePath();
    if (!path.empty() && tryLoadProfiles(path))
        return *profiles_;

    profiles_ =
        profileWorkload(*workload_, config_.options.profiling, exec_);
    if (!path.empty()) {
        ensureArtifactDir();
        saveProfiles(path);
    }
    return *profiles_;
}

void
Experiment::saveProfiles(const std::string &path)
{
    ProfileArtifact artifact;
    artifact.workload = spec_;
    artifact.profiling = config_.options.profiling;
    saveLending(path, artifact, *profiles_, &ProfileArtifact::profiles);
}

void
Experiment::seedProfiles(std::vector<RegionProfile> profiles)
{
    if (profiles.size() != workload_->regionCount())
        fatal("seeded profiles describe %zu regions but workload %s has "
              "%u",
              profiles.size(), spec_.name.c_str(),
              workload_->regionCount());
    profiles_ = std::move(profiles);
    // Everything downstream was derived from the previous profiles.
    analysis_.reset();
    snapshots_.clear();
    results_.clear();
    seeded_ = true;
}

// ------------------------------------------------------------- analysis

bool
Experiment::tryLoadAnalysis(const std::string &path)
{
    if (!fileExists(path))
        return false;
    try {
        AnalysisArtifact artifact = loadAnalysisArtifact(path);
        if (artifact.workload != spec_) {
            warn("analysis artifact %s was produced for a different "
                 "workload spec; recomputing",
                 path.c_str());
            return false;
        }
        if (artifact.optionsHash != optionsHash_) {
            warn("analysis artifact %s was produced with different "
                 "analysis options; recomputing",
                 path.c_str());
            return false;
        }
        analysis_ = std::move(artifact.analysis);
        return true;
    } catch (const SerializeError &error) {
        warn("analysis artifact %s is unreadable (%s); recomputing",
             path.c_str(), error.what());
        return false;
    }
}

StreamingConfig
Experiment::effectiveStreaming()
{
    StreamingConfig streaming = config_.streaming;
    if (streaming.spillDir.empty() && !config_.artifactDir.empty()) {
        ensureArtifactDir();
        streaming.spillDir = config_.artifactDir;
    }
    return streaming;
}

const BarrierPointAnalysis &
Experiment::analysis()
{
    if (analysis_)
        return *analysis_;
    const std::string path = analysisPath();
    if (!seeded_ && !path.empty() && tryLoadAnalysis(path))
        return *analysis_;

    if (config_.streaming.enabled) {
        // The streaming pass never materializes profiles (and writes
        // no profile artifact) unless a profile stage already exists —
        // then it streams over the in-memory profiles instead, which
        // feeds the analyzer the identical consume() sequence.
        if (profiles_) {
            analysis_ = analyzeProfilesStreaming(
                *profiles_, config_.options, effectiveStreaming(), exec_);
        } else {
            analysis_ = analyzeWorkloadStreaming(
                *workload_, config_.options, effectiveStreaming(), exec_);
        }
    } else {
        analysis_ = analyzeProfiles(profiles(), config_.options, exec_);
    }
    if (!seeded_ && !path.empty()) {
        ensureArtifactDir();
        saveAnalysis(path);
    }
    return *analysis_;
}

void
Experiment::saveAnalysis(const std::string &path)
{
    AnalysisArtifact artifact;
    artifact.workload = spec_;
    artifact.optionsHash = optionsHash_;
    saveLending(path, artifact, *analysis_, &AnalysisArtifact::analysis);
}

void
Experiment::seedAnalysis(BarrierPointAnalysis analysis)
{
    if (analysis.numRegions() != workload_->regionCount())
        fatal("seeded analysis describes %u regions but workload %s has "
              "%u",
              analysis.numRegions(), spec_.name.c_str(),
              workload_->regionCount());
    analysis_ = std::move(analysis);
    // Snapshots and results were derived from the previous analysis.
    snapshots_.clear();
    results_.clear();
    seeded_ = true;
}

// ------------------------------------------------------------ snapshots

std::string
Experiment::snapshotPath(uint64_t private_lines, bool evicted,
                         uint64_t capacity_lines) const
{
    std::string leaf = stem_ + "-o" + hex16(optionsHash_) + "-p" +
                       std::to_string(private_lines);
    if (evicted)
        leaf += "-c" + std::to_string(capacity_lines);
    return artifactPath(leaf + ".snapshots.bp");
}

std::optional<SnapshotArtifact>
Experiment::tryLoadSnapshots(const std::string &path, uint64_t private_lines)
{
    if (!fileExists(path))
        return std::nullopt;
    const std::vector<uint32_t> regions = analysis().pointRegions();
    try {
        SnapshotArtifact artifact = loadSnapshotArtifact(path);
        if (artifact.workload != spec_ ||
            artifact.privateLines != private_lines ||
            artifact.regions != regions) {
            warn("snapshot artifact %s was captured for a different "
                 "analysis or machine; recapturing",
                 path.c_str());
            return std::nullopt;
        }
        return artifact;
    } catch (const SerializeError &error) {
        warn("snapshot artifact %s is unreadable (%s); recapturing",
             path.c_str(), error.what());
        return std::nullopt;
    }
}

const SnapshotArtifact *
Experiment::findCapture(const MachineConfig &machine) const
{
    const uint64_t capacity = mruCapacityLines(machine);
    const uint64_t private_lines = mruPrivateLines(machine);
    // A capture at this very capacity first: it may be a seed, which
    // must win over a shared capture.
    const auto exact = snapshots_.find({capacity, private_lines});
    if (exact != snapshots_.end())
        return &exact->second;
    for (const auto &[key, artifact] : snapshots_) {
        if (key.second == private_lines && artifact.serves(capacity))
            return &artifact;
    }
    return nullptr;
}

const SnapshotArtifact &
Experiment::capture(const MachineConfig &machine)
{
    if (const SnapshotArtifact *hit = findCapture(machine))
        return *hit;
    const uint64_t capacity = mruCapacityLines(machine);
    const uint64_t private_lines = mruPrivateLines(machine);
    const bool persist = !seeded_ && !config_.artifactDir.empty();
    if (persist) {
        // The shared capture first, then one that serves only this
        // capacity.
        for (const bool evicted : {false, true}) {
            std::optional<SnapshotArtifact> loaded = tryLoadSnapshots(
                snapshotPath(private_lines, evicted, capacity),
                private_lines);
            if (loaded) {
                const SnapshotKey key{loaded->capacityLines, private_lines};
                snapshots_.try_emplace(key, *std::move(loaded));
            }
            if (const SnapshotArtifact *hit = findCapture(machine))
                return *hit;
        }
    }

    std::vector<uint32_t> regions = analysis().pointRegions();
    MruCapture fresh =
        captureMru(*workload_, regions, capacity, private_lines);
    const SnapshotArtifact &stored =
        snapshots_
            .emplace(SnapshotKey{capacity, private_lines},
                     SnapshotArtifact{spec_, capacity, private_lines,
                                      std::move(regions),
                                      std::move(fresh.snapshots),
                                      fresh.highWaterLines, fresh.evicted})
            .first->second;
    if (persist) {
        ensureArtifactDir();
        saveArtifact(snapshotPath(private_lines, stored.evicted, capacity),
                     stored);
    }
    return stored;
}

const MruSnapshotSet &
Experiment::snapshots(const MachineConfig &machine)
{
    return capture(machine).snapshots;
}

void
Experiment::adoptSnapshots(const MachineConfig &machine,
                           SnapshotArtifact artifact)
{
    // Every capture this one replaces for the machine goes, so the
    // seed is what simulate() replays.
    const uint64_t capacity = mruCapacityLines(machine);
    const uint64_t private_lines = mruPrivateLines(machine);
    std::erase_if(snapshots_, [&](const auto &entry) {
        return entry.first.second == private_lines &&
               entry.second.serves(capacity);
    });
    snapshots_.insert_or_assign(
        SnapshotKey{artifact.capacityLines, private_lines},
        std::move(artifact));
    // Adopted external data: drop results derived from any previous
    // snapshots and stop exchanging derivatives with the artifact
    // cache.
    results_.clear();
    seeded_ = true;
}

bool
Experiment::trySeedSnapshots(const MachineConfig &machine,
                             const std::string &path)
{
    std::optional<SnapshotArtifact> loaded =
        tryLoadSnapshots(path, mruPrivateLines(machine));
    if (!loaded)
        return false;
    if (!loaded->serves(mruCapacityLines(machine))) {
        warn("snapshot artifact %s was captured at a capacity that does "
             "not serve machine %s; recapturing",
             path.c_str(), machine.name.c_str());
        return false;
    }
    adoptSnapshots(machine, *std::move(loaded));
    return true;
}

void
Experiment::seedSnapshots(const MachineConfig &machine,
                          MruSnapshotSet snapshots)
{
    // The meaning check a snapshot artifact passes on load: seeding is
    // the one way an externally built set reaches the simulator.
    const uint64_t capacity = mruCapacityLines(machine);
    if (const char *error = snapshotSetError(
            snapshots, analysis().points.size(), workload_->threadCount(),
            capacity, capacity, true))
        fatal("seeded snapshot set is not a capture of this analysis on "
              "machine %s: %s",
              machine.name.c_str(), error);
    adoptSnapshots(machine,
                   SnapshotArtifact{spec_, capacity, mruPrivateLines(machine),
                                    analysis().pointRegions(),
                                    std::move(snapshots)});
}

// -------------------------------------------------------------- exports

void
Experiment::exportProfiles(const std::string &path)
{
    profiles();
    saveProfiles(path);
}

void
Experiment::exportAnalysis(const std::string &path)
{
    analysis();
    saveAnalysis(path);
}

void
Experiment::exportSnapshots(const MachineConfig &machine,
                            const std::string &path)
{
    saveArtifact(path, capture(machine));
}

// ----------------------------------------------------------- simulation

const SimulationResult &
Experiment::storeResult(const ResultKey &key, const MachineConfig &machine,
                        WarmupPolicy policy,
                        std::vector<RegionStats> stats)
{
    SimulationResult result;
    result.machine = machine.name;
    result.policy = policy;
    result.estimate = reconstruct(analysis(), stats);
    result.stats = std::move(stats);

    const std::string path = resultPath(machine, policy);
    if (!seeded_ && !path.empty()) {
        ensureArtifactDir();
        RunResultArtifact artifact;
        artifact.workload = spec_;
        artifact.machine = machine.name;
        artifact.flavor =
            std::string("barrierpoints-") + warmupPolicyName(policy);
        artifact.optionsHash = optionsHash_;
        artifact.result.regions = result.stats;
        saveArtifact(path, artifact);
    }
    return results_[key] = std::move(result);
}

bool
Experiment::tryLoadResult(const std::string &path, const ResultKey &key,
                          const MachineConfig &machine, WarmupPolicy policy)
{
    if (!fileExists(path))
        return false;
    const std::string flavor =
        std::string("barrierpoints-") + warmupPolicyName(policy);
    try {
        RunResultArtifact artifact = loadRunResultArtifact(path);
        if (artifact.workload != spec_ ||
            artifact.optionsHash != optionsHash_ ||
            artifact.machine != machine.name ||
            artifact.flavor != flavor ||
            artifact.result.regions.size() != analysis().points.size()) {
            warn("result artifact %s was produced by a different "
                 "experiment; re-simulating",
                 path.c_str());
            return false;
        }
        SimulationResult result;
        result.machine = machine.name;
        result.policy = policy;
        result.stats = std::move(artifact.result.regions);
        result.estimate = reconstruct(analysis(), result.stats);
        results_[key] = std::move(result);
        return true;
    } catch (const SerializeError &error) {
        warn("result artifact %s is unreadable (%s); re-simulating",
             path.c_str(), error.what());
        return false;
    }
}

void
Experiment::simulateMissing(std::span<const MachineConfig> machines,
                            WarmupPolicy policy)
{
    struct Pending
    {
        const MachineConfig *machine;
        ResultKey key;
        const MruSnapshotSet *snapshots = nullptr;
    };
    std::vector<Pending> pending;
    for (const MachineConfig &machine : machines) {
        requireMachineFits(machine);
        const ResultKey key = resultKey(machine, policy);
        if (results_.count(key))
            continue;
        bool queued = false;
        for (const Pending &p : pending)
            queued = queued || p.key == key;
        if (queued)
            continue;
        const std::string path = resultPath(machine, policy);
        if (!seeded_ && !path.empty() &&
            tryLoadResult(path, key, machine, policy))
            continue;
        pending.push_back({&machine, key});
    }
    if (pending.empty())
        return;

    const BarrierPointAnalysis &a = analysis();
    // Warmup capture is inherently serial; do it up front (one capture
    // per private-cache size, shared by every machine it serves) so
    // the fan-out below only reads.
    if (policy == WarmupPolicy::MruReplay) {
        for (Pending &p : pending)
            p.snapshots = &snapshots(*p.machine);
    }

    // One fan-out over every (machine, barrierpoint) pair on the
    // shared pool, so short per-machine tails overlap.
    std::vector<MachineJob> jobs;
    for (const Pending &p : pending)
        jobs.push_back({p.machine, p.snapshots});
    auto stats = simulateMachines(*workload_, a, jobs, exec_);
    for (size_t mi = 0; mi < pending.size(); ++mi) {
        storeResult(pending[mi].key, *pending[mi].machine, policy,
                    std::move(stats[mi]));
    }
}

const SimulationResult &
Experiment::simulate(const MachineConfig &machine, WarmupPolicy policy)
{
    simulateMissing({&machine, 1}, policy);
    return results_.at(resultKey(machine, policy));
}

const Estimate &
Experiment::estimate(const MachineConfig &machine, WarmupPolicy policy)
{
    return simulate(machine, policy).estimate;
}

std::vector<SimulationResult>
Experiment::sweep(const std::vector<MachineConfig> &machines,
                  WarmupPolicy policy)
{
    simulateMissing(machines, policy);
    std::vector<SimulationResult> out;
    out.reserve(machines.size());
    for (const MachineConfig &machine : machines)
        out.push_back(results_.at(resultKey(machine, policy)));
    return out;
}

// ------------------------------------------------------------ reference

bool
Experiment::tryLoadReference(const std::string &path,
                             const std::string &machine_key,
                             const MachineConfig &machine)
{
    if (!fileExists(path))
        return false;
    try {
        RunResultArtifact artifact = loadRunResultArtifact(path);
        if (artifact.workload != spec_ ||
            artifact.machine != machine.name ||
            artifact.flavor != "reference" ||
            artifact.result.regions.size() != workload_->regionCount()) {
            warn("reference artifact %s was produced by a different "
                 "experiment; re-simulating",
                 path.c_str());
            return false;
        }
        references_[machine_key] = std::move(artifact.result);
        return true;
    } catch (const SerializeError &error) {
        warn("reference artifact %s is unreadable (%s); re-simulating",
             path.c_str(), error.what());
        return false;
    }
}

const RunResult &
Experiment::reference(const MachineConfig &machine)
{
    requireMachineFits(machine);
    const std::string machine_key = machineKey(machine);
    auto it = references_.find(machine_key);
    if (it != references_.end())
        return it->second;
    const std::string path = referencePath(machine);
    if (!path.empty() && tryLoadReference(path, machine_key, machine))
        return references_.at(machine_key);

    RunResult result = runReference(*workload_, machine);
    if (!path.empty()) {
        ensureArtifactDir();
        RunResultArtifact artifact;
        artifact.workload = spec_;
        artifact.machine = machine.name;
        artifact.flavor = "reference";
        artifact.result = result;
        saveArtifact(path, artifact);
    }
    return references_[machine_key] = std::move(result);
}

} // namespace bp
