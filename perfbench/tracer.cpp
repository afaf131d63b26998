#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <unordered_map>

namespace perfbench {

namespace {

/** Ids of the spans open on this thread, innermost last. */
thread_local std::vector<uint32_t> tOpenSpans;

uint32_t
threadNumber()
{
    static std::atomic<uint32_t> next{1};
    thread_local const uint32_t number = next.fetch_add(1);
    return number;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

} // namespace

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

Tracer::Tracer(std::string run_id) : runId_(std::move(run_id)), origin_(now())
{}

Tracer::Scope::Scope(Tracer &tracer, const char *name, const char *layer)
    : tracer_(tracer)
{
    span_.name = name;
    span_.layer = layer;
    span_.id = tracer_.nextId_.fetch_add(1);
    span_.parent = tracer_.openParent();
    span_.thread = threadNumber();
    tOpenSpans.push_back(span_.id);
    span_.start = now();
}

Tracer::Scope::~Scope()
{
    span_.end = now();
    tOpenSpans.pop_back();
    tracer_.push(span_);
}

uint32_t
Tracer::openParent() const
{
    return tOpenSpans.empty() ? stage_.load() : tOpenSpans.back();
}

void
Tracer::push(const Span &span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::string, double>
Tracer::selfSecondsByLayer() const
{
    const std::vector<Span> all = spans();
    std::unordered_map<uint32_t, std::vector<std::pair<double, double>>>
        children;
    for (const Span &s : all)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.start, s.end);

    std::map<std::string, double> self;
    for (const Span &s : all) {
        double covered = 0.0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            // Union of the child intervals, clipped to the parent's.
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            double lo = 0.0, hi = 0.0;
            bool open = false;
            for (auto [a, b] : iv) {
                a = std::max(a, s.start);
                b = std::min(b, s.end);
                if (b <= a)
                    continue;
                if (open && a <= hi) {
                    hi = std::max(hi, b);
                    continue;
                }
                if (open)
                    covered += hi - lo;
                lo = a;
                hi = b;
                open = true;
            }
            if (open)
                covered += hi - lo;
        }
        self[s.layer] += std::max(0.0, (s.end - s.start) - covered);
    }
    return self;
}

double
Tracer::totalSeconds(const std::string &name) const
{
    double total = 0.0;
    for (const Span &s : spans())
        if (s.name == name)
            total += s.end - s.start;
    return total;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f,
                 "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":0,\"args\":{\"name\":\"perfbench %s\"}}",
                 jsonEscape(runId_).c_str());
    for (const Span &s : spans()) {
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%u,\"parent\":%u,\"run\":\"%s\"}}",
                     jsonEscape(s.name).c_str(), jsonEscape(s.layer).c_str(),
                     s.thread, (s.start - origin_) * 1e6,
                     (s.end - s.start) * 1e6, s.id, s.parent,
                     jsonEscape(runId_).c_str());
    }
    std::fprintf(f, "\n]}\n");
    const bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
