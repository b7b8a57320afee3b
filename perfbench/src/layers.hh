/**
 * @file
 * The traced run: replays the runSuite pipeline through each layer's
 * public calls, recording a span around every call. Spans live only
 * in the benchmark's files — the simulator itself is unchanged — and
 * are kept in memory until the run ends.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench
{

/** In-memory span recorder: name, start, end, causing span, and the
 *  trace (grid trace index) the span belongs to. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;  ///< 0 = root
        std::uint64_t group = 0;   ///< shared by the spans of one trace
        std::uint64_t thread = 0;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
    };

    /** RAII span; closes on destruction. */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name, std::uint64_t group,
              std::uint64_t parent = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        std::uint64_t id() const { return span.id; }
        /** Close now and return the duration in seconds. */
        double close();

      private:
        SpanLog &log;
        Span span;
        bool open = true;
    };

    /** Sum of durations per span name, in seconds, and span counts. */
    Json totals() const;

    /** Chrome trace_event JSON of every span. */
    Json chromeTrace() const;

  private:
    std::int64_t nowNs() const;
    void add(Span span);

    const std::chrono::steady_clock::time_point origin =
        std::chrono::steady_clock::now();
    mutable std::mutex mutex;  ///< guards spans and nextId
    std::vector<Span> spans;
    std::uint64_t nextId = 1;

    friend class Scope;
};

/**
 * The layer-by-layer run described in perfbench/README.md. With
 * @p full false only pass B runs, on an already warm store: the
 * untraced runs use it as their independent reference.
 */
Json runTraced(const Args &args, bool full);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
