#include "common/trace.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace qgpu
{

namespace
{

using Interval = std::pair<double, double>;

/** Sort + merge into disjoint intervals. */
std::vector<Interval>
unionOf(std::vector<Interval> v)
{
    std::vector<Interval> out;
    std::sort(v.begin(), v.end());
    for (const auto &iv : v) {
        if (iv.second <= iv.first)
            continue;
        if (!out.empty() && iv.first <= out.back().second)
            out.back().second = std::max(out.back().second, iv.second);
        else
            out.push_back(iv);
    }
    return out;
}

/** a \ b for disjoint sorted interval sets. */
std::vector<Interval>
subtract(const std::vector<Interval> &a, const std::vector<Interval> &b)
{
    std::vector<Interval> out;
    std::size_t j = 0;
    for (auto [lo, hi] : a) {
        while (j < b.size() && b[j].second <= lo)
            ++j;
        double cur = lo;
        for (std::size_t k = j; k < b.size() && b[k].first < hi; ++k) {
            if (b[k].first > cur)
                out.push_back({cur, b[k].first});
            cur = std::max(cur, b[k].second);
        }
        if (cur < hi)
            out.push_back({cur, hi});
    }
    return out;
}

double
length(const std::vector<Interval> &v)
{
    double total = 0.0;
    for (const auto &iv : v)
        total += iv.second - iv.first;
    return total;
}

} // namespace

void
Trace::record(const std::string &phase, const std::string &label,
              const std::string &resource, VTime start, VTime end,
              std::vector<std::pair<std::string, double>> counters)
{
    if (enabled_)
        spans_.push_back({phase, label, resource, start, end,
                          openDepth_, std::move(counters)});
}

void
Trace::clear()
{
    spans_.clear();
    openDepth_ = 0;
}

VTime
Trace::horizon() const
{
    VTime horizon = 0.0;
    for (const auto &span : spans_)
        horizon = std::max(horizon, span.end);
    return horizon;
}

double
Trace::coveredTime() const
{
    std::vector<Interval> all;
    all.reserve(spans_.size());
    for (const auto &span : spans_)
        all.push_back({span.start, span.end});
    return length(unionOf(all));
}

const std::vector<std::string> &
Trace::defaultPriority()
{
    static const std::vector<std::string> order = {
        phases::compute, phases::compress,    phases::h2d,
        phases::d2h,     phases::hostCompute, phases::prune,
    };
    return order;
}

std::map<std::string, PhaseTotal>
Trace::phaseTotals(const std::vector<std::string> &priority) const
{
    std::map<std::string, PhaseTotal> totals;
    std::map<std::string, std::vector<Interval>> by_phase;
    std::vector<std::string> order = priority;
    for (const auto &span : spans_) {
        auto &total = totals[span.phase];
        total.busy += span.duration();
        ++total.spans;
        by_phase[span.phase].push_back({span.start, span.end});
        if (std::find(order.begin(), order.end(), span.phase) ==
            order.end()) {
            order.push_back(span.phase);
        }
    }
    // Exposure: each phase keeps what no higher-priority phase covers.
    std::vector<Interval> higher;
    for (const auto &phase : order) {
        auto it = by_phase.find(phase);
        if (it == by_phase.end())
            continue;
        const auto mine = unionOf(std::move(it->second));
        totals[phase].exposed = length(subtract(mine, higher));
        higher.insert(higher.end(), mine.begin(), mine.end());
        higher = unionOf(std::move(higher));
    }
    return totals;
}

std::string
jsonEscape(const std::string &s)
{
    std::ostringstream os;
    for (const char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    return os.str();
}

std::string
Trace::toJson(bool with_spans) const
{
    std::ostringstream os;
    os.precision(12);
    os << "{\"horizon\": " << horizon()
       << ", \"covered\": " << coveredTime() << ", \"phases\": {";
    bool first = true;
    for (const auto &[phase, total] : phaseTotals()) {
        os << (first ? "" : ", ") << '"' << jsonEscape(phase)
           << "\": {\"busy\": " << total.busy
           << ", \"exposed\": " << total.exposed
           << ", \"spans\": " << total.spans << "}";
        first = false;
    }
    os << "}";
    if (with_spans) {
        os << ", \"spans\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto &span = spans_[i];
            os << (i ? ", " : "") << "{\"phase\": \""
               << jsonEscape(span.phase) << "\", \"label\": \""
               << jsonEscape(span.label) << "\", \"resource\": \""
               << jsonEscape(span.resource)
               << "\", \"start\": " << span.start
               << ", \"end\": " << span.end
               << ", \"depth\": " << span.depth;
            if (!span.counters.empty()) {
                os << ", \"counters\": {";
                for (std::size_t c = 0; c < span.counters.size(); ++c)
                    os << (c ? ", " : "") << '"'
                       << jsonEscape(span.counters[c].first)
                       << "\": " << span.counters[c].second;
                os << "}";
            }
            os << "}";
        }
        os << "]";
    }
    os << "}";
    return os.str();
}

std::string
Trace::toCsv() const
{
    std::ostringstream os;
    os.precision(12);
    os << "phase,label,resource,start,end,depth,counters\n";
    for (const auto &span : spans_) {
        os << span.phase << ',' << span.label << ',' << span.resource
           << ',' << span.start << ',' << span.end << ','
           << span.depth << ',';
        for (std::size_t c = 0; c < span.counters.size(); ++c)
            os << (c ? ";" : "") << span.counters[c].first << '='
               << span.counters[c].second;
        os << '\n';
    }
    return os.str();
}

std::string
renderTimeline(const Trace &trace, int columns)
{
    VTime horizon = 0.0;
    std::vector<std::string> names; // resources in first-seen order
    std::map<std::string, std::string> rows;
    std::size_t widest = 0;
    for (const TraceSpan &span : trace.spans()) {
        if (span.end <= span.start)
            continue;
        horizon = std::max(horizon, span.end);
        if (rows.emplace(span.resource, std::string(columns, '.')).second) {
            names.push_back(span.resource);
            widest = std::max(widest, span.resource.size());
        }
    }
    if (names.empty())
        return "(empty timeline)\n";

    for (const TraceSpan &span : trace.spans()) {
        if (span.end <= span.start)
            continue;
        std::string &row = rows[span.resource];
        const int from =
            static_cast<int>(span.start / horizon * (columns - 1));
        const int to = static_cast<int>(span.end / horizon * (columns - 1));
        const char mark = span.label.empty() ? '#' : span.label[0];
        for (int i = from; i <= to && i < columns; ++i)
            row[i] = mark;
    }
    std::ostringstream os;
    for (const std::string &name : names)
        os << name << std::string(widest - name.size() + 2, ' ')
           << rows[name] << "\n";
    os << "total: " << horizon << " s\n";
    return os.str();
}

ScopedSpan::ScopedSpan(Trace &trace, std::string phase,
                       std::string label)
    : trace_(trace), phase_(std::move(phase)), label_(std::move(label))
{
    startSec_ = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() -
                    trace_.wallEpoch_)
                    .count();
    ++trace_.openDepth_;
}

ScopedSpan::~ScopedSpan()
{
    const double end = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() -
                           trace_.wallEpoch_)
                           .count();
    --trace_.openDepth_;
    trace_.record(phase_, label_, "wall", startSec_, end,
                  std::move(counters_));
}

void
ScopedSpan::counter(const std::string &name, double delta)
{
    for (auto &[key, value] : counters_) {
        if (key == name) {
            value += delta;
            return;
        }
    }
    counters_.push_back({name, delta});
}

} // namespace qgpu
