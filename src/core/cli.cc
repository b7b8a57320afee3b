#include "core/cli.hh"

#include <cstdlib>

#include "util/logging.hh"

namespace ghrp::core
{

CliOptions::CliOptions(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg(argv[i]);
        if (arg.rfind("--", 0) != 0)
            fatal("unexpected argument '%s' (flags start with --)",
                  arg.c_str());
        arg = arg.substr(2);

        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            values[arg.substr(0, eq)] = arg.substr(eq + 1);
            continue;
        }
        if (i + 1 < argc && argv[i + 1][0] != '-') {
            values[arg] = argv[i + 1];
            ++i;
        } else {
            values[arg] = "";  // bare boolean flag
        }
    }
}

std::uint64_t
CliOptions::getUint(const std::string &name,
                    std::uint64_t default_value) const
{
    const auto it = values.find(name);
    if (it == values.end())
        return default_value;
    if (it->second.empty())
        fatal("flag --%s requires a value", name.c_str());
    return std::strtoull(it->second.c_str(), nullptr, 10);
}

double
CliOptions::getDouble(const std::string &name, double default_value) const
{
    const auto it = values.find(name);
    if (it == values.end())
        return default_value;
    if (it->second.empty())
        fatal("flag --%s requires a value", name.c_str());
    return std::strtod(it->second.c_str(), nullptr);
}

std::string
CliOptions::getString(const std::string &name,
                      const std::string &default_value) const
{
    const auto it = values.find(name);
    return it == values.end() ? default_value : it->second;
}

bool
CliOptions::has(const std::string &name) const
{
    return values.count(name) != 0;
}

const std::vector<CliFlag> &
knownCliFlags()
{
    static const std::vector<CliFlag> flags = {
        {"traces", "suite size (number of synthetic traces)"},
        {"instructions", "per-trace dynamic instruction override"},
        {"seed", "suite base seed"},
        {"jobs",
         "sweep worker threads (0 = hardware concurrency, 1 = serial)"},
        {"trace-cache",
         "content-addressed trace store directory (or GHRP_TRACE_CACHE)"},
        {"leg-times", "print the per-leg wall-time table"},
        {"quiet", "suppress progress and throughput reporting"},
        {"log-level",
         "verbosity: quiet|warn|info (or GHRP_LOG_LEVEL)"},
        {"slow-leg-ms",
         "warn about (trace, policy) legs slower than N milliseconds"},
        {"trace-out",
         "write a Chrome trace_event JSON of the run to FILE "
         "(or GHRP_TRACE_DIR)"},
        {"report",
         "write a versioned JSON run report to FILE (or GHRP_REPORT_DIR)"},
        {"kb", "I-cache size in KiB"},
        {"assoc", "I-cache associativity"},
        {"btb-entries", "BTB entry count"},
        {"btb-assoc", "BTB associativity"},
        {"policy",
         "replacement policy: a name (LRU, SRRIP, GHRP, ...) or a "
         "set-dueling spec duel:<A>,<B>[,psel=N][,leaders=K]"},
        {"category", "workload category for single-trace tools"},
        {"tolerance", "win/similar/worse relative tolerance"},
        {"generate", "trace-tool mode: generate a trace file"},
        {"replay", "trace-tool mode: replay a trace file"},
        {"info", "trace-tool mode: print trace metadata"},
        {"pgm", "heat-map tools: write PGM images"},
        {"socket", "service tools: unix-domain socket path"},
        {"journal-dir",
         "ghrp-served: directory for job journals and reports"},
        {"max-queue",
         "ghrp-served: queued-job bound before submits are rejected"},
        {"fsync",
         "ghrp-served: journal durability (every|close|off)"},
        {"experiment", "ghrp-client submit: experiment name"},
        {"priority", "ghrp-client submit: queue priority"},
        {"timeout",
         "ghrp-client: job wall-clock limit / connect timeout seconds"},
        {"wait", "ghrp-client submit: follow the job and fetch its report"},
        {"job", "ghrp-client: job id for status/watch/result/cancel"},
        {"out", "ghrp-client/ghrp-report: output file or directory"},
        {"prometheus",
         "ghrp-client metrics: render Prometheus text instead of JSON"},
        {"watch",
         "ghrp-client metrics: refresh the snapshot every SECS seconds"},
        {"total-threads",
         "ghrp-served: global simulation thread budget shared by all "
         "running jobs (0 = hardware concurrency)"},
        {"max-active",
         "ghrp-served: jobs running concurrently (0 = total-threads, "
         "1 = serial daemon)"},
        {"start-paused",
         "ghrp-served: accept and journal submissions but run nothing "
         "(fault-injection hook)"},
        {"daemons",
         "ghrp-client sweep: comma-separated daemon socket paths"},
        {"daemons-file",
         "ghrp-client sweep: discovery file, one daemon socket per line"},
        {"seeds",
         "ghrp-client sweep: comma-separated base seeds (one cell each)"},
        {"policies",
         "ghrp-client sweep: comma-separated policy names or "
         "duel:<A>,<B> specs per cell"},
        {"shard-attempts",
         "ghrp-client sweep: submit attempts per shard before giving up"},
        {"poll-ms",
         "ghrp-client sweep: fleet poll interval in milliseconds"},
        {"out-dir",
         "ghrp-client sweep: directory for the merged cell reports"},
        {"duel",
         "append a duel:<A>,<B> set-dueling leg to the suite's "
         "policy axis (bench suites)"},
        {"phase-window",
         "phase flight recorder: sample a windowed telemetry record "
         "every N instructions (or GHRP_PHASE_WINDOW; 0 = off)"},
        {"phases",
         "ghrp-client watch: render a rolling per-leg phase readout "
         "from the streamed flight-recorder records"},
        {"diff",
         "ghrp-report phases: align two reports' trajectories and "
         "print per-window I-cache MPKI winner flips"},
    };
    return flags;
}

void
applyLogLevel(const CliOptions &cli)
{
    std::string name;
    if (const char *env = std::getenv("GHRP_LOG_LEVEL"))
        name = env;
    if (cli.has("quiet"))
        name = "warn";
    name = cli.getString("log-level", name);
    if (name.empty())
        return;
    LogLevel level;
    if (!parseLogLevel(name, level))
        fatal("unknown log level '%s' (expected quiet|warn|info)",
              name.c_str());
    setLogLevel(level);
}

} // namespace ghrp::core
