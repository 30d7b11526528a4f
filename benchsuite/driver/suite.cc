#include "suite.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

#include "common/trace.hh"
#include "fault/checksum.hh"

namespace qgpu
{
namespace benchsuite
{

double
now()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1
               ? values[mid]
               : 0.5 * (values[mid - 1] + values[mid]);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::ceil(q * static_cast<double>(values.size()));
    const std::size_t at = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[at - 1];
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

bool
statesAgree(const StateVector &got, const StateVector &want, double tol)
{
    if (got.size() != want.size())
        return false;
    for (Index i = 0; i < got.size(); ++i) {
        const Amp a = got[i];
        const Amp b = want[i];
        if (!std::isfinite(a.real()) || !std::isfinite(a.imag()))
            return false;
        // Written as !(d <= tol) so a NaN difference fails too.
        if (!(std::abs(a.real() - b.real()) <= tol) ||
            !(std::abs(a.imag() - b.imag()) <= tol))
            return false;
    }
    return true;
}

std::uint64_t
stateDigest(const StateVector &state)
{
    return checksumAmps(state.amplitudes());
}

int
SpanLog::add(std::string name, double start, double end, int parent,
             int lane)
{
    spans_.push_back({std::move(name), start, end, parent, lane});
    return static_cast<int>(spans_.size()) - 1;
}

int
SpanLog::open(std::string name, int parent)
{
    const double t = now();
    return add(std::move(name), t, t, parent, 0);
}

void
SpanLog::close(int id)
{
    spans_[static_cast<std::size_t>(id)].end = now();
}

bool
SpanLog::writeChromeTrace(const std::string &path,
                          const std::string &process) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out.precision(15);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
        << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": 0, \"args\": {\"name\": \""
        << jsonEscape(process) << "\"}}";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << ",\n{\"name\": \"" << jsonEscape(s.name)
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.lane
            << ", \"ts\": " << s.start * 1e6
            << ", \"dur\": " << (s.end - s.start) * 1e6
            << ", \"args\": {\"id\": " << i
            << ", \"parent\": " << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

Usage
Usage::now()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    Usage u;
    u.userSeconds = secs(ru.ru_utime);
    u.sysSeconds = secs(ru.ru_stime);
    u.contextSwitches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
    return u;
}

Usage
Usage::operator-(const Usage &earlier) const
{
    Usage d;
    d.userSeconds = userSeconds - earlier.userSeconds;
    d.sysSeconds = sysSeconds - earlier.sysSeconds;
    d.contextSwitches = contextSwitches - earlier.contextSwitches;
    return d;
}

} // namespace benchsuite
} // namespace qgpu
