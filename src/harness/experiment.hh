/**
 * @file
 * Experiment harness shared by the bench binaries: named engine
 * construction (the six paper versions plus the CPU comparators),
 * scaled machine construction, and one-call circuit runs.
 */

#ifndef QGPU_HARNESS_EXPERIMENT_HH
#define QGPU_HARNESS_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "baselines/cpu_engines.hh"
#include "circuits/circuits.hh"
#include "engine/versions.hh"
#include "sim/machine.hh"

namespace qgpu
{
namespace harness
{

/**
 * Engine selector names accepted by makeEngine: the six paper
 * versions ("baseline", "naive", "overlap", "pruning", "reorder",
 * "qgpu") plus "cpu", "qsim", "qdk".
 */
std::unique_ptr<ExecutionEngine>
makeEngine(const std::string &which, Machine &machine,
           ExecOptions base = {});

/**
 * Run @p circuit with engine @p which on @p machine and return the
 * result (state dropped by default to keep sweeps light). Headline
 * numbers are published to MetricsRegistry::global() via
 * publishRunMetrics.
 */
RunResult runOn(const std::string &which, Machine &machine,
                const Circuit &circuit, ExecOptions base = {});

/**
 * Publish one run's headline stats into the process-wide metrics
 * registry: counters runs.total and runs.<engine>, histograms
 * run.total_time / run.wall_time / run.bytes_h2d / run.bytes_d2h.
 */
void publishRunMetrics(const RunResult &result);

/**
 * One-run JSON report: engine name, total virtual time, every stat
 * counter, and the trace (per-phase busy/exposed totals plus the
 * span list) when one was recorded. This is the machine-readable
 * contract behind `qgpu_sim --trace` and the bench breakdowns.
 */
std::string runReportJson(const RunResult &result);

/** Write runReportJson(@p result) to @p path (fatal on I/O error). */
void writeRunReport(const RunResult &result, const std::string &path);

/**
 * Default bench scaling: a machine whose device memory is 1/16 of an
 * @p num_qubits state (the paper's 256 GB state / 16 GB P100 ratio),
 * matching makeScaled with the P100 preset.
 */
Machine benchMachine(int num_qubits, int num_gpus = 1);

/** Bench default options: no state retention. */
ExecOptions benchOptions();

} // namespace harness
} // namespace qgpu

#endif // QGPU_HARNESS_EXPERIMENT_HH
