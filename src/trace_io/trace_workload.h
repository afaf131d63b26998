/**
 * @file
 * TraceWorkload: a recorded `.bptrace` file replayed as a Workload.
 *
 * This is the other half of `bp record`: any trace file — recorded
 * from a synthetic workload or produced by an external tracer that
 * writes the format in docs/trace_format.md — becomes a first-class
 * workload named `trace:<path>`. generateRegion(i) seeks the file's
 * region index and materializes region i straight from the read-only
 * mapping, so it is genuinely const and concurrently callable, which
 * is all the parallel profiling pipeline requires. Every downstream
 * stage (profiling, clustering, simulation, estimation — including the
 * PR 6 sampled profiler and the PR 8 streaming analyzer) works on a
 * TraceWorkload unchanged.
 *
 * Workload identity: the thread count comes from the file (a trace
 * *is* its interleaving; it cannot be re-threaded), scale and seed are
 * meaningless and pinned to canonical values, and contentHash()
 * exposes the trace's content fingerprint so Experiment's artifact
 * cache keys on what the file contains, not what it is called.
 */

#ifndef BP_TRACE_IO_TRACE_WORKLOAD_H
#define BP_TRACE_IO_TRACE_WORKLOAD_H

#include <memory>
#include <string>

#include "src/trace_io/trace_reader.h"
#include "src/workloads/workload.h"

namespace bp {

class TraceWorkload : public Workload
{
  public:
    unsigned regionCount() const override;
    uint64_t contentHash() const override;

    const TraceReader &reader() const { return *reader_; }

  private:
    friend std::unique_ptr<Workload>
    makeTraceWorkload(const std::string &path);

    TraceWorkload(std::unique_ptr<TraceReader> reader, std::string name);

    RegionTrace generate(unsigned index) const override;

    std::unique_ptr<TraceReader> reader_;
};

/**
 * Open @p path and wrap it as the workload `trace:<path>`. Throws
 * TraceError if the file is missing, corrupt, or holds no regions.
 */
std::unique_ptr<Workload> makeTraceWorkload(const std::string &path);

} // namespace bp

#endif // BP_TRACE_IO_TRACE_WORKLOAD_H
