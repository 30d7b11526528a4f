/**
 * @file
 * Shared scaffolding of the benchmark driver: the benchmark's own wall
 * clock, order statistics, the state checker every oracle comparison
 * goes through, the span log behind the traced run (exported as a
 * Chrome trace-event file), and resource-usage snapshots.
 *
 * The suite measures the simulator from outside: every span and every
 * timing here brackets a call into a public function of the library,
 * and every counter is one the library already returns.
 */

#ifndef QGPU_BENCHSUITE_SUITE_HH
#define QGPU_BENCHSUITE_SUITE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "statevec/state_vector.hh"

namespace qgpu
{
namespace benchsuite
{

/** Steady-clock seconds since the first call in this process. */
double now();

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * Value at quantile @p q in [0, 1] of @p values, nearest rank on the
 * sorted sample (0 when empty).
 */
double quantile(std::vector<double> values, double q);

/** Geometric mean of positive @p values (0 when empty). */
double geomean(const std::vector<double> &values);

/**
 * The state checker. True when @p got has the size of @p want, holds
 * no NaN or infinite component, and differs from it by at most @p tol
 * in every amplitude component.
 */
bool statesAgree(const StateVector &got, const StateVector &want,
                 double tol);

/** Bit-exact digest of a state's amplitudes (for bit-identity checks
 *  between runs that must not differ in a single bit). */
std::uint64_t stateDigest(const StateVector &state);

/** One benchmark-side span: a call into the program or a replay. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1; ///< index of the enclosing span, -1 at the root
    int lane = 0;    ///< display row (thread id in the trace file)
};

/**
 * In-memory span list. Recording is a vector append; nothing is written
 * until writeChromeTrace is called at the end of the run.
 */
class SpanLog
{
  public:
    /** Record a finished span; returns its index. */
    int add(std::string name, double start, double end,
            int parent = -1, int lane = 0);

    /** Open a span starting now; close it with close(). */
    int open(std::string name, int parent = -1);
    void close(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Write the spans as a Chrome trace-event JSON file (complete "X"
     * events, microseconds), which chrome://tracing and
     * ui.perfetto.dev open. The parent index travels in each event's
     * args. Returns false when the file cannot be written.
     */
    bool writeChromeTrace(const std::string &path,
                          const std::string &process) const;

  private:
    std::vector<Span> spans_;
};

/** Process CPU time and context switches (getrusage). */
struct Usage
{
    double userSeconds = 0.0;
    double sysSeconds = 0.0;
    double contextSwitches = 0.0;

    static Usage now();
    Usage operator-(const Usage &earlier) const;
};

} // namespace benchsuite
} // namespace qgpu

#endif // QGPU_BENCHSUITE_SUITE_HH
