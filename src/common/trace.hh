/**
 * @file
 * Span-based execution tracing. Engines tag every scheduled piece of
 * work with an execution *phase* (h2d, compute, d2h, compress, ...)
 * and record it as a span over virtual time; host-side code can open
 * nestable RAII spans measured in wall time. A Trace aggregates spans
 * into per-phase totals — both *busy* time (sum of span durations)
 * and *exposed* time (the part of the run each phase occupies on the
 * critical path, computed by interval union with a phase priority) —
 * and exports them as JSON or CSV. The exposed totals are the
 * measurement contract for the paper's breakdown figures (Figs. 2/4/
 * 13/14): they partition the covered run time, so per-phase exposed
 * values sum to the wall time minus idle gaps.
 */

#ifndef QGPU_COMMON_TRACE_HH
#define QGPU_COMMON_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace qgpu
{

/** Canonical phase names recorded by the engines. */
namespace phases
{
inline constexpr const char *h2d = "h2d";
inline constexpr const char *d2h = "d2h";
/** GPU-to-GPU exchange transfers (multi-device sharding). */
inline constexpr const char *peer = "peer";
inline constexpr const char *compute = "compute";
/** Codec work, both directions (labels "cmp"/"dec" distinguish). */
inline constexpr const char *compress = "compress";
inline constexpr const char *hostCompute = "host_compute";
/** Zero-length prune-decision markers carrying live/pruned counters. */
inline constexpr const char *prune = "prune";
inline constexpr const char *other = "other";
} // namespace phases

/** One traced span of work. */
struct TraceSpan
{
    std::string phase;    ///< canonical phase (see qgpu::phases)
    std::string label;    ///< timeline mark, e.g. "kernel", "xfer"
    std::string resource; ///< scheduling resource, e.g. "p100:0.h2d"
    VTime start = 0.0;
    VTime end = 0.0;
    int depth = 0; ///< nesting depth (scoped spans only)
    /** Counters attached to this span (bytes, chunks, ratios...). */
    std::vector<std::pair<std::string, double>> counters;

    VTime duration() const { return end - start; }
};

/** Per-phase aggregate over a trace. */
struct PhaseTotal
{
    double busy = 0.0;    ///< sum of span durations
    double exposed = 0.0; ///< critical-path share (partition of run)
    std::uint64_t spans = 0;
};

/**
 * An append-only collection of spans. Recording is disabled by
 * default so the engines' hot path does not allocate.
 */
class Trace
{
  public:
    void enable() { enabled_ = true; }
    bool enabled() const { return enabled_; }

    /** Record a span over virtual time (no-op when disabled). */
    void
    record(const std::string &phase, const std::string &label,
           const std::string &resource, VTime start, VTime end)
    {
        if (enabled_)
            spans_.push_back({phase, label, resource, start, end,
                              openDepth_, {}});
    }

    /** Record a span carrying counters (no-op when disabled). */
    void record(const std::string &phase, const std::string &label,
                const std::string &resource, VTime start, VTime end,
                std::vector<std::pair<std::string, double>> counters);

    const std::vector<TraceSpan> &spans() const { return spans_; }
    bool empty() const { return spans_.empty(); }
    void clear();

    /** Latest span end. */
    VTime horizon() const;

    /** Length of the union of all span intervals (run minus idle). */
    double coveredTime() const;

    /**
     * Aggregate per-phase busy/exposed totals. Exposure attributes
     * each covered instant to the highest-priority phase active at
     * that instant, so exposed totals partition coveredTime().
     * Phases absent from @p priority rank after it, in first-seen
     * order.
     */
    std::map<std::string, PhaseTotal>
    phaseTotals(const std::vector<std::string> &priority =
                    defaultPriority()) const;

    /** compute > compress > h2d > d2h > host_compute > prune. */
    static const std::vector<std::string> &defaultPriority();

    /**
     * JSON object: {"horizon": .., "covered": .., "phases": {name:
     * {"busy","exposed","spans"}}, "spans": [...]}. Spans carry their
     * counters; @p with_spans false drops the span array for compact
     * summaries.
     */
    std::string toJson(bool with_spans = true) const;

    /** CSV: header + one row per span (counters flattened as k=v). */
    std::string toCsv() const;

  private:
    friend class ScopedSpan;

    bool enabled_ = false;
    int openDepth_ = 0;
    std::vector<TraceSpan> spans_;
    std::chrono::steady_clock::time_point wallEpoch_ =
        std::chrono::steady_clock::now();
};

/**
 * RAII wall-clock span for host-side code (harness, benches, CLI).
 * Opens on construction, records on destruction; nesting depth is
 * tracked through the owning Trace. Times are seconds since the
 * trace's construction, so scoped spans and a fresh trace share an
 * origin.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Trace &trace, std::string phase, std::string label);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Attach a counter to the span recorded at scope exit. */
    void counter(const std::string &name, double delta);

  private:
    Trace &trace_;
    std::string phase_;
    std::string label_;
    double startSec_;
    std::vector<std::pair<std::string, double>> counters_;
};

/**
 * The Fig. 6 chart: one row per resource, @p columns wide, covering
 * [0, latest span end], each span marked with its label's first
 * letter. Zero-length markers (prune decisions) carry no work and are
 * skipped.
 */
std::string renderTimeline(const Trace &trace, int columns = 100);

/** Escape a string for embedding in a JSON document. */
std::string jsonEscape(const std::string &s);

} // namespace qgpu

#endif // QGPU_COMMON_TRACE_HH
