/**
 * @file
 * Shared pieces of the measuring binary: command-line arguments, the
 * two front-end configurations the workloads use, the sweep grid, and
 * per-leg counter records in the JSON form run.py compares.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "report/json.hh"
#include "report/report.hh"

namespace perfbench
{

using ghrp::report::Json;

/** Grid cells per campaign: seeds S and S+1. */
constexpr unsigned kCells = 2;
/** Campaigns a timed loop runs at least, whatever --seconds says. */
constexpr unsigned kMinReps = 2;

/** Arguments shared by every subcommand. */
struct Args
{
    std::string command;
    std::string store;     ///< trace-store directory
    std::string config = "paper";  ///< paper | small
    std::string daemon;    ///< served: daemon socket
    std::string out;       ///< result JSON path
    std::string workDir;   ///< scratch files of a traced run
    std::uint64_t seed = 42;
    unsigned traces = 24;
    std::uint64_t instructions = 0;  ///< per-trace override, 0 = default
    unsigned jobs = 4;
    double seconds = 10.0;  ///< time budget of a campaign loop
    unsigned pings = 200;
    long rssPid = 0;  ///< process whose resident set a loop samples, 0 = self
    long corruptLeg = -1;  ///< self-test: perturb this leg's counters
};

Args parseArgs(int argc, char **argv);

/** The front-end configuration of @p name: "paper" (64KB 8-way
 *  I-cache, 4096x4 BTB) or "small" (8KB 4-way I-cache, 512x4 BTB). */
ghrp::frontend::FrontendConfig frontendConfig(const std::string &name);

/** Suite options of grid cell @p cell (seed + cell). */
ghrp::core::SuiteOptions cellOptions(const Args &args, unsigned cell);

/** Every trace spec of the grid, cell-major, with its cell seed. */
struct GridTrace
{
    std::uint64_t cellSeed = 0;
    ghrp::workload::TraceSpec spec;
};
std::vector<GridTrace> gridTraces(const Args &args);

/** One leg's exact counters, keyed by (cell seed, trace, policy). */
Json legRecord(std::uint64_t cell_seed,
               const ghrp::frontend::FrontendResult &result);
Json legRecord(std::uint64_t cell_seed, const ghrp::report::Leg &leg);

/** Self-test hook: add one miss to the I-cache of @p legs[index]. */
void corruptLeg(Json &legs, long index);

/** Seconds since @p start. */
inline double
since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Write @p value to @p path (or stdout when empty). */
void writeJson(const std::string &path, const Json &value);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
