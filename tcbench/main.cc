/**
 * @file
 * tcbench: the tcfill benchmark program. One invocation runs one
 * workload (sweep, sampled or service) for --seconds, checks every
 * simulated result against its digest pin and the ISA-invisibility
 * invariants, and prints its metrics — end-to-end ones untraced, the
 * per-layer ones with --trace 1 — ending with one JSON line:
 *
 *   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
 *
 * Usage:
 *   tcbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *           [--pins FILE] [--write-pins FILE] [--tiny]
 *           [--scratch DIR] [--trace-out FILE]
 *
 * Exits 0 when every check passed, 1 when one failed, 2 on bad usage.
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hh"

using namespace tcbench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "tcbench: " << why << "\n"
              << "usage: tcbench --workload sweep|sampled|service "
                 "[--seed N] [--seconds S] [--trace 0|1]\n"
                 "               [--pins FILE] [--write-pins FILE] "
                 "[--tiny] [--scratch DIR] [--trace-out FILE]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            opts.workload = next();
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(next().c_str(), nullptr);
        } else if (arg == "--trace") {
            opts.trace = next() != "0";
        } else if (arg == "--pins") {
            opts.pinsPath = next();
        } else if (arg == "--write-pins") {
            opts.writePins = next();
        } else if (arg == "--tiny") {
            opts.tiny = true;
        } else if (arg == "--scratch") {
            opts.scratch = next();
        } else if (arg == "--trace-out") {
            opts.traceOut = next();
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (!(opts.seconds > 0))
        usage("--seconds must be positive");
    // At most four workers, and one core left to the rest of the
    // host: with every core busy, any other process preempts a worker
    // and the sweep waits on that straggler.
    const unsigned cores = std::thread::hardware_concurrency();
    opts.threads = std::clamp(cores > 1 ? cores - 1 : 1u, 1u, 4u);

    Pins pins;
    std::string err;
    if (opts.writePins.empty()) {
        if (opts.pinsPath.empty())
            usage("--pins is required (or --write-pins to regenerate)");
        if (!pins.load(opts.pinsPath, err))
            usage(err);
    }

    Report rep;
    if (opts.workload == "sweep")
        runSweep(opts, pins, rep);
    else if (opts.workload == "sampled")
        runSampledWorkload(opts, pins, rep);
    else if (opts.workload == "service")
        runService(opts, pins, rep);
    else
        usage("unknown workload '" + opts.workload + "'");

    if (!opts.writePins.empty() && !pins.save(opts.writePins)) {
        std::cerr << "tcbench: cannot write " << opts.writePins << "\n";
        return 1;
    }
    rep.print();
    // Regeneration runs have no pins to match.
    if (!opts.writePins.empty())
        return 0;
    return rep.failures() == 0 ? 0 : 1;
}
