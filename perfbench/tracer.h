/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one timed call into a layer of the library: its name, its
 * layer, start and end on the steady clock, the thread it ran on, and
 * the span that caused it. The benchmark opens spans only around calls
 * it makes into public functions; nothing inside the library is
 * instrumented. Spans stay in memory and are written once, at the end,
 * as Chrome trace-event JSON (Perfetto and chrome://tracing open it).
 *
 * Parenting: a span's parent is the innermost span open on its own
 * thread; a span opened on a pool worker with no open span of its own
 * takes the current stage span (setStage()) instead, so work fanned
 * out on the pool still hangs under the stage that caused it.
 */

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock. */
double now();

/** Seconds of CPU time used by the whole process. */
double processCpuSeconds();

struct Span
{
    std::string name;
    std::string layer;
    double start = 0.0;
    double end = 0.0;
    uint32_t id = 0;
    uint32_t parent = 0;  ///< 0 = root
    uint32_t thread = 0;  ///< small per-process thread number
};

class Tracer
{
  public:
    /** @param run_id identifier shared by every span of this run */
    explicit Tracer(std::string run_id);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** RAII span: opened by the constructor, recorded by the destructor. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, const char *layer);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        uint32_t id() const { return span_.id; }

      private:
        Tracer &tracer_;
        Span span_;
    };

    /** Make @p span_id the parent of spans opened on idle threads. */
    void setStage(uint32_t span_id) { stage_.store(span_id); }

    /** Every span recorded so far, in completion order. */
    std::vector<Span> spans() const;

    /**
     * Self time per layer: each span's duration minus the part of its
     * interval that its child spans cover, summed by layer.
     */
    std::map<std::string, double> selfSecondsByLayer() const;

    /** Summed durations of the spans named @p name. */
    double totalSeconds(const std::string &name) const;

    /** Write the spans as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    uint32_t openParent() const;
    void push(const Span &span);

    std::string runId_;
    double origin_ = 0.0;
    std::atomic<uint32_t> nextId_{1};
    std::atomic<uint32_t> stage_{0};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;  // guarded by mutex_
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
