/**
 * @file
 * mosaic_perfbench: runs one named workload for a fixed host time and
 * prints its metrics. Untraced (--trace 0), it repeats rounds — set-up
 * plus measured phase — and reports the medians of the end-to-end
 * metrics. Traced (--trace 1), it alternates untraced and traced
 * rounds, then replays the workload's page stream through the layers
 * its own path does not expose, and reports the per-layer metrics.
 *
 * Every round folds its simulated results into a digest: all rounds
 * of a run must agree, a traced round must agree with an untraced
 * one, and at the default seed the digest must equal the pinned
 * value. Any failed check fails the run (exit status 1).
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...},
 *    "digest": "..."}
 * run.py builds the benchmark, adds the thread-invariance check and
 * prints the final record.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "util/parse.hh"

using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10.0;
    bool trace = false;
    unsigned threads = 0;
    std::string stateDir = ".bench_build/serve_state";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "mosaic_perfbench: " << why
              << "\nusage: mosaic_perfbench --workload "
                 "fig6|swap|tenants|serve [--seed N] [--seconds S] "
                 "[--trace 0|1] [--threads N] [--state-dir DIR]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        const auto number = [&](const char *what) {
            const auto parsed = mosaic::parseUnsigned(what, value);
            if (!parsed.ok())
                usage(parsed.status().toString());
            return parsed.value();
        };
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = number("--seed");
        } else if (flag == "--seconds") {
            args.seconds = static_cast<double>(number("--seconds"));
        } else if (flag == "--trace") {
            args.trace = number("--trace") != 0;
        } else if (flag == "--threads") {
            args.threads = static_cast<unsigned>(number("--threads"));
        } else if (flag == "--state-dir") {
            args.stateDir = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    return args;
}

std::unique_ptr<Workload>
makeWorkload(const Args &args)
{
    if (args.workload == "fig6")
        return makeFig6(args.seed);
    if (args.workload == "swap")
        return makeSwap(args.seed);
    if (args.workload == "tenants")
        return makeTenants(args.seed);
    if (args.workload == "serve")
        return makeServe(args.seed, args.stateDir);
    usage("unknown workload '" + args.workload + "'");
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Unit
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric a traced run prints, in BENCHMARK.json order. */
constexpr Unit layerMetrics[] = {
    {"workloads.gen.s", "s"},
    {"core.access.s", "s"},
    {"core.access.ns_per_ref", "ns"},
    {"core.mapped_pages", "count"},
    {"tlb.lookup.ns_per_op", "ns"},
    {"tlb.fill.ns_per_op", "ns"},
    {"tlb.fill_full.ns_per_op", "ns"},
    {"tlb.vanilla.misses", "count"},
    {"tlb.mosaic.misses", "count"},
    {"tlb.hit_ratio", "ratio"},
    {"pt.walk.ns_per_op", "ns"},
    {"pt.walk.ops", "count"},
    {"hash.candidates.ns_per_op", "ns"},
    {"mem.place.ns_per_op", "ns"},
    {"mem.conflicts", "count"},
    {"os.mosaic.touch_hit.ns", "ns"},
    {"os.mosaic.touch_fault.ns", "ns"},
    {"os.mosaic.touch_evict.ns", "ns"},
    {"os.linux.touch_hit.ns", "ns"},
    {"os.linux.touch_fault.ns", "ns"},
    {"os.linux.touch_evict.ns", "ns"},
    {"os.mosaic.major_faults", "count"},
    {"os.mosaic.swap_outs", "count"},
    {"os.linux.major_faults", "count"},
    {"os.linux.swap_outs", "count"},
    {"os.mosaic.ghost_rescues", "count"},
    {"os.shard.block_ms.p50", "ms"},
    {"os.shard.block_ms.p99", "ms"},
    {"os.shard.steals", "count"},
    {"os.shard.deferred_ops", "count"},
    {"os.shard.imbalance_permille", "permille"},
    {"serve.submit.ns.p50", "ns"},
    {"serve.submit.ns.p99", "ns"},
    {"serve.drain.s", "s"},
    {"serve.retries", "count"},
    {"serve.wal.bytes_per_req", "B"},
    {"trace.overhead_pct", "%"},
    {"trace.coverage_pct", "%"},
};

/** Layer replays use at most this many page touches of the stream. */
constexpr std::size_t replayCap = 400000;

struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t digest = 0;
    std::vector<std::string> errors;
    std::vector<std::pair<Unit, double>> metrics;
};

/** Fold one round into @p out: count it, and check its digest against
 *  the run's first round. */
void
account(Outcome &out, const Round &r, bool first)
{
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.errors.insert(out.errors.end(), r.errors.begin(), r.errors.end());
    if (!r.errors.empty() && r.failed == 0)
        ++out.failed;
    if (first) {
        out.digest = r.digest;
    } else if (r.digest != out.digest) {
        out.errors.push_back("round digest differs from the first round's");
        ++out.failed;
    }
}

void
printDistribution(const char *name, const std::vector<double> &v)
{
    std::printf("  %-24s median %.6g  q1 %.6g  q3 %.6g  (%zu rounds)\n",
                name, quantile(v, 0.5), quantile(v, 0.25),
                quantile(v, 0.75), v.size());
}

Outcome
runUntraced(Workload &workload, const Args &args)
{
    Outcome out;
    std::vector<double> setup, rate;
    std::vector<std::pair<std::uint64_t, double>> best;
    LatencySamples latency;
    std::map<std::string, double> results;
    double peak_rss = 0.0;
    const auto start = Clock::now();
    do {
        const Round r = workload.round(nullptr);
        // The first round's peak is the workload's footprint; later
        // rounds only add allocator fragmentation from repeating it,
        // which would tie the figure to how many rounds fit in a run.
        if (setup.empty())
            peak_rss = peakRssMib();
        account(out, r, setup.empty());
        setup.push_back(r.setupSeconds);
        double events = 0.0, seconds = 0.0;
        for (const auto &[part_events, part_seconds] : r.parts) {
            events += static_cast<double>(part_events);
            seconds += part_seconds;
        }
        rate.push_back(events / seconds);
        if (best.empty())
            best = r.parts;
        for (std::size_t p = 0; p < best.size() && p < r.parts.size(); ++p)
            best[p].second = std::min(best[p].second, r.parts[p].second);
        for (const double ns : r.latencyNs)
            latency.add(ns);
        results = r.results;
    } while (secondsSince(start) < args.seconds);

    std::printf("workload %s  seed %llu  rounds %zu\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), setup.size());
    printDistribution("events_per_s", rate);
    printDistribution("setup_s", setup);
    for (const auto &[name, value] : results)
        std::printf("  %-24s %.6f %% (simulated, exact)\n", name.c_str(),
                    value);
    if (latency.count() > 0) {
        std::printf("  latency_p50_us           %.3f us\n"
                    "  latency_p99_us           %.3f us  (%llu submits, "
                    "exact from raw samples)\n",
                    latency.quantile(0.50) * 1e-3,
                    latency.quantile(0.99) * 1e-3,
                    static_cast<unsigned long long>(latency.count()));
    }
    std::printf("  failed_frac              %.6f  (%llu of %llu)\n",
                out.attempted == 0
                    ? 0.0
                    : static_cast<double>(out.failed) /
                          static_cast<double>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));

    // Each part's fastest round: co-tenants of a shared host only ever
    // slow a round down, and their effect drifts over minutes, so the
    // fastest round of each part is the steadiest estimate of the
    // simulator's own speed (see README.md).
    double best_events = 0.0, best_seconds = 0.0;
    for (const auto &[events, seconds] : best) {
        best_events += static_cast<double>(events);
        best_seconds += seconds;
    }
    std::printf("  events_per_s (fastest)   %.6g  (%.0f events a round)\n",
                best_events / best_seconds, best_events);

    out.metrics = {
        {{"events_per_s", "1/s"}, best_events / best_seconds},
        {{"setup_s", "s"}, median(setup)},
        {{"peak_rss_mib", "MiB"}, peak_rss},
    };
    return out;
}

Outcome
runTraced(Workload &workload, const Args &args)
{
    Outcome out;
    Trace trace;
    std::vector<double> untraced_wall, traced_wall, coverage;
    const auto start = Clock::now();
    do {
        const Round plain = workload.round(nullptr);
        account(out, plain, untraced_wall.empty());
        untraced_wall.push_back(plain.wallSeconds);

        trace.clearSpans();
        const auto traced_start = Clock::now();
        const Round traced = workload.round(&trace);
        const double elapsed = secondsSince(traced_start);
        account(out, traced, false);
        traced_wall.push_back(traced.wallSeconds);
        // What the spans leave out is the benchmark's own glue and
        // checks (digests, the conservation oracle, daemon teardown).
        coverage.push_back(100.0 * trace.spanSeconds() / elapsed);
    } while (secondsSince(start) < args.seconds);

    const auto replay_start = Clock::now();
    std::vector<std::string> replay_errors;
    replayLayers(workload.stream(replayCap), args.seed, args.stateDir,
                 trace, replay_errors);
    if (!replay_errors.empty()) {
        out.errors.insert(out.errors.end(), replay_errors.begin(),
                          replay_errors.end());
        ++out.failed;
    }
    trace.set("trace.overhead_pct",
              100.0 * (median(traced_wall) / median(untraced_wall) - 1.0));
    trace.set("trace.coverage_pct", median(coverage));

    std::printf("workload %s  seed %llu  traced rounds %zu  replays "
                "%.2f s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                traced_wall.size(), secondsSince(replay_start));
    for (const Unit &u : layerMetrics) {
        const auto it = trace.values().find(u.name);
        if (it == trace.values().end()) {
            out.errors.push_back(std::string("no value for ") + u.name);
            ++out.failed;
            continue;
        }
        std::printf("  %-30s %.6g %s\n", u.name, it->second, u.unit);
        out.metrics.push_back({u, it->second});
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    // The benchmark's own settings, never the caller's environment:
    // the shared pool's size, and none of the library's knobs.
    const unsigned threads =
        args.threads != 0
            ? args.threads
            : std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    setenv("MOSAIC_THREADS", std::to_string(threads).c_str(), 1);
    for (const char *knob : {"MOSAIC_BATCH", "MOSAIC_FULL_POOL",
                             "MOSAIC_FAULTS", "MOSAIC_CELL_RETRIES"})
        unsetenv(knob);

    const std::unique_ptr<Workload> workload = makeWorkload(args);
    Outcome out;
    try {
        out = args.trace ? runTraced(*workload, args)
                         : runUntraced(*workload, args);
    } catch (const std::exception &e) {
        out.errors.push_back(std::string("exception: ") + e.what());
        out.failed = std::max<std::uint64_t>(out.failed, 1);
        out.attempted = std::max<std::uint64_t>(out.attempted, 1);
    }
    if (args.seed == defaultSeed && workload->pinnedDigest() != 0 &&
            out.digest != workload->pinnedDigest()) {
        out.errors.push_back("digest differs from the pinned value");
        ++out.failed;
    }

    for (const auto &[unit, value] : out.metrics) {
        if (!std::isfinite(value))
            out.errors.push_back(std::string("non-finite ") + unit.name);
    }
    const bool correct = out.errors.empty() && out.failed == 0;
    for (const std::string &e : out.errors)
        std::printf("CHECK FAILED: %s\n", e.c_str());
    std::printf("threads %u  digest %llu\n", threads,
                static_cast<unsigned long long>(out.digest));

    // A failed check is never reported as a number.
    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << out.attempted
         << ", \"failed\": " << out.failed << ", \"metrics\": {";
    if (correct) {
        const char *sep = "";
        for (const auto &[unit, value] : out.metrics) {
            json << sep << "\"" << unit.name << "\": {\"value\": " << value
                 << ", \"unit\": \"" << unit.unit << "\"}";
            sep = ", ";
        }
    }
    json << "}, \"digest\": \"" << out.digest << "\"}";
    std::printf("%s\n", json.str().c_str());
    return correct ? 0 : 1;
}
