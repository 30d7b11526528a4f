/**
 * @file
 * Shared scaffolding for the table/figure bench binaries: the scaled
 * qubit sweep (our n maps to the paper's n + offset), machine
 * construction with a fixed device memory across the sweep (the paper
 * holds the 16 GB P100 fixed while growing the circuit), and output
 * helpers.
 */

#ifndef QGPU_BENCH_COMMON_HH
#define QGPU_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "common/table.hh"
#include "harness/experiment.hh"

namespace qgpu
{
namespace bench
{

/**
 * Largest state size simulated functionally, overridable with the
 * QGPU_BENCH_QUBITS environment variable (default 14). Our largest
 * sweep point stands for the paper's 34-qubit run.
 */
int sweepMaxQubits();

/** The five sweep points, mirroring the paper's 30..34. */
std::vector<int> sweepQubits();

/** The paper-equivalent qubit count of sweep point @p n. */
int paperQubits(int n);

/**
 * Machine for sweep point @p n: device memory fixed at 1/16 of the
 * largest sweep state (so small points fit fully on the GPU, exactly
 * like 30-qubit circuits fit a 16 GB P100), rates scaled to
 * paper-equivalent size.
 */
Machine machineFor(int n, DeviceSpec gpu = machines::p100(),
                   int num_gpus = 1);

/**
 * Run engine @p which on family @p family at sweep point @p n. The
 * run records an execution trace; when the QGPU_BENCH_TRACE
 * environment variable names a file, a machine-readable phase
 * breakdown row (see phaseCsvRow) is appended to it, so every bench
 * binary emits its per-phase numbers without further wiring.
 */
RunResult run(const std::string &which, const std::string &family,
              int n, Machine &machine);

/**
 * Append a phase-breakdown row for @p result (labeled @p family /
 * @p n) to the file named by QGPU_BENCH_TRACE; no-op when the
 * variable is unset. run() calls this automatically; benches that
 * drive harness::runOn directly (custom circuits or options) call it
 * themselves so every bench emits machine-readable phase numbers.
 */
void maybeEmitPhaseCsv(const RunResult &result,
                       const std::string &family, int n);

/** Header matching phaseCsvRow. */
std::string phaseCsvHeader();

/**
 * One CSV row: engine,family,qubits,total plus exposed/busy seconds
 * for each canonical phase (h2d, d2h, compute, compress,
 * host_compute).
 */
std::string phaseCsvRow(const RunResult &result,
                        const std::string &family, int n);

/** Print the standard bench banner. */
void banner(const std::string &title, const std::string &paper_ref,
            const std::string &expectation);

/**
 * Hardware thread count, with the shared oversubscription warning:
 * on a single-hardware-thread host a standard "<tool>: warning:
 * only one hardware thread ..." note goes to stderr. Every
 * JSON-emitting bench pairs this with emitHardwareThreadsJson so
 * the files carry a uniform "hardware_threads" field and, on
 * single-thread hosts, the top-level "warning": "oversubscribed"
 * marker the analysis scripts key off.
 */
int hardwareThreadsWithWarning(const std::string &tool);

/**
 * The uniform JSON fragment behind the warning contract:
 * `, "hardware_threads": N` plus `, "warning": "oversubscribed"`
 * when @p hw is 1. Emit inside the top-level object, before the
 * entries array.
 */
std::string hardwareThreadsJson(int hw);

} // namespace bench
} // namespace qgpu

#endif // QGPU_BENCH_COMMON_HH
