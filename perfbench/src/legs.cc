/**
 * @file
 * Argument parsing, workload configurations and per-leg counter
 * records shared by the benchmark's subcommands.
 */

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common.hh"
#include "core/cli.hh"

namespace perfbench
{

using namespace ghrp;

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        throw std::invalid_argument("usage: perfbench <command> [--flags]");
    Args a;
    a.command = argv[1];
    const core::CliOptions cli(argc - 1, argv + 1);
    a.store = cli.getString("store", "");
    a.config = cli.getString("config", a.config);
    a.daemon = cli.getString("daemon", "");
    a.out = cli.getString("out", "");
    a.workDir = cli.getString("work-dir", "");
    a.seed = cli.getUint("seed", a.seed);
    a.traces = static_cast<unsigned>(cli.getUint("traces", a.traces));
    a.instructions = cli.getUint("instructions", a.instructions);
    a.jobs = static_cast<unsigned>(cli.getUint("jobs", a.jobs));
    a.seconds = cli.getDouble("seconds", a.seconds);
    a.pings = static_cast<unsigned>(cli.getUint("pings", a.pings));
    a.rssPid = static_cast<long>(cli.getUint("rss-pid", 0));
    const std::string corrupt = cli.getString("corrupt-leg", "");
    if (!corrupt.empty())
        a.corruptLeg = std::stol(corrupt);
    if (a.traces == 0 || a.jobs == 0)
        throw std::invalid_argument("--traces and --jobs must be > 0");
    if (a.config != "paper" && a.config != "small")
        throw std::invalid_argument("--config must be paper or small");
    return a;
}

frontend::FrontendConfig
frontendConfig(const std::string &name)
{
    frontend::FrontendConfig config;  // paper: 64KB 8-way, 4096x4 BTB
    if (name == "small") {
        config.icache = cache::CacheConfig::icache(8, 4);
        config.btb = cache::CacheConfig::btb(512, 4);
    }
    return config;
}

core::SuiteOptions
cellOptions(const Args &args, unsigned cell)
{
    core::SuiteOptions options;
    options.numTraces = args.traces;
    options.baseSeed = args.seed + cell;
    options.instructionOverride = args.instructions;
    options.base = frontendConfig(args.config);
    options.jobs = args.jobs;
    options.traceCacheDir = args.store;
    return options;
}

std::vector<GridTrace>
gridTraces(const Args &args)
{
    std::vector<GridTrace> out;
    for (unsigned c = 0; c < kCells; ++c)
        for (const auto &spec :
             workload::makeSuite(args.traces, args.seed + c))
            out.push_back({args.seed + c, spec});
    return out;
}

namespace
{

Json
counterArray(std::initializer_list<std::uint64_t> values)
{
    Json a = Json::array();
    for (std::uint64_t v : values)
        a.push(v);
    return a;
}

Json
counterArray(const report::CounterSet &s)
{
    return counterArray({s.accesses, s.hits, s.misses, s.bypasses,
                         s.evictions, s.deadEvictions});
}

} // anonymous namespace

Json
legRecord(std::uint64_t cell_seed, const report::Leg &leg)
{
    Json j = Json::object();
    j.set("seed", cell_seed);
    j.set("trace", leg.trace);
    j.set("policy", leg.policy);
    j.set("instr", counterArray({leg.totalInstructions,
                                 leg.warmupInstructions,
                                 leg.measuredInstructions}));
    j.set("icache", counterArray(leg.icache));
    j.set("btb", counterArray(leg.btb));
    j.set("branch",
          counterArray({leg.condBranches, leg.condMispredicts,
                        leg.btbTargetMismatches, leg.rasReturns,
                        leg.rasMispredicts, leg.indirectBranches,
                        leg.indirectMispredicts}));
    return j;
}

Json
legRecord(std::uint64_t cell_seed, const frontend::FrontendResult &result)
{
    return legRecord(cell_seed, report::makeLeg(result.traceName,
                                                result.policy, result));
}

void
corruptLeg(Json &legs, long index)
{
    if (index < 0 || static_cast<std::size_t>(index) >= legs.size())
        return;
    // Rebuild the leg with one extra I-cache miss: the counters a
    // broken simulator would report for that leg.
    Json::Array rebuilt = legs.asArray();
    Json &leg = rebuilt[static_cast<std::size_t>(index)];
    Json icache = Json::array();
    std::size_t i = 0;
    for (const Json &v : leg.at("icache").asArray())
        icache.push(v.asUint() + (i++ == 2 ? 1 : 0));
    leg.set("icache", std::move(icache));
    legs = Json::array();
    for (Json &l : rebuilt)
        legs.push(std::move(l));
}

void
writeJson(const std::string &path, const Json &value)
{
    const std::string text = value.dump(0) + "\n";
    if (path.empty()) {
        std::fwrite(text.data(), 1, text.size(), stdout);
        std::fflush(stdout);
        return;
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

} // namespace perfbench
