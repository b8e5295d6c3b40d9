/**
 * @file
 * The serving load benchmark (DESIGN.md §16): mosaicd under the
 * multiprogrammed tenant mixes, one client thread per tenant, each
 * submitting its deterministic workload trace through the admission
 * path with retry. Per mix it reports throughput, submit-latency
 * percentiles (p50/p99/p999 from a log2-ns histogram), and the full
 * shed/retry/recovery counter set; a final overload scenario pins a
 * tiny ring behind a checkpoint-per-request worker plus a drained
 * token bucket, so shedding is guaranteed exercised (the CI schema
 * check asserts shed > 0 there and conservation everywhere).
 *
 * The metrics hold only what the traces fix: requests, sessions and,
 * for the sized scenarios, whose clients retry backpressure until
 * every request is accepted, the sessions' state digest. They are
 * byte-comparable across runs. Every count that depends on how the
 * clients and workers interleave (submitted, accepted, completed,
 * shed.*, epochCheckpoints, ...), ops/sec and the latency histograms
 * go under "timing" (DESIGN.md §9).
 *
 * Knobs: MOSAIC_SERVE_REQUESTS (default 4000) caps requests per
 * tenant; MOSAIC_SERVE_SCALE (default 0.05) scales the workloads;
 * MOSAIC_SERVE_WORKERS (default 2); MOSAIC_SERVE_SEED (default 1).
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/experiments.hh"
#include "core/interference.hh"
#include "serve/daemon.hh"
#include "telemetry/histogram.hh"
#include "util/random.hh"
#include "workloads/access_sink.hh"
#include "workloads/factory.hh"

namespace fs = std::filesystem;

using namespace mosaic;
using namespace mosaic::serve;

namespace
{

struct ScenarioResult
{
    std::string name;
    ServeTotals totals;
    /** Requests the clients' traces hold. */
    std::uint64_t requests = 0;
    /** FNV mix of every session's state digest, in session order. */
    std::uint64_t stateDigest = 0;
    telemetry::LatencyHistogram latency;
    double seconds = 0.0;
};

struct ScenarioSpec
{
    std::string name;
    const InterferenceMix *mix;
    bool overload = false;
};

/** One client's trace, deterministic across runs and scenarios. */
std::vector<MemRef>
tenantTrace(WorkloadKind kind, double scale, std::uint64_t seed,
            std::uint64_t cell, std::uint64_t max_requests)
{
    VectorSink sink;
    makeFig6Workload(kind, scale, experimentCellSeed(seed, cell))
        ->run(sink);
    std::vector<MemRef> trace = sink.trace();
    if (trace.size() > max_requests)
        trace.resize(max_requests);
    return trace;
}

ScenarioResult
runScenario(const ScenarioSpec &spec, const std::string &dir,
            double scale, std::uint64_t requests,
            unsigned workers, std::uint64_t seed)
{
    fs::remove_all(dir);

    ServeConfig config;
    config.stateDir = dir;
    config.workers = workers;
    config.seed = seed;
    config.epochEvery = 1024;
    if (spec.overload) {
        // Guaranteed pressure: a 4-slot ring behind a worker that
        // checkpoints every request, and a bucket that refills a
        // tenth of a token per attempt.
        config.ringCapacity = 4;
        config.epochEvery = 1;
        config.tokenBurst = 32;
        config.tokenRatePermille = 100;
    }

    Mosaicd daemon(config);
    Status st = daemon.start();
    if (!st.ok())
        fatal("bench_serving: start: " + st.toString());

    ScenarioResult result;
    result.name = spec.name;

    std::vector<telemetry::LatencyHistogram> perClient(
        spec.mix->tenants.size());
    std::vector<std::uint64_t> issued(spec.mix->tenants.size());
    // Connect in tenant order, so every run gives each client the
    // same session id, and with it the same simulator seed.
    std::vector<SessionHandle> sessions;
    for (std::size_t t = 0; t < spec.mix->tenants.size(); ++t) {
        auto handle = daemon.connect(
            workloadName(spec.mix->tenants[t].kind) + "-" +
            std::to_string(t));
        if (!handle.ok())
            fatal("bench_serving: connect: " +
                  handle.status().toString());
        sessions.push_back(handle.value());
    }
    const bench::WallTimer timer;
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < spec.mix->tenants.size(); ++t) {
        clients.emplace_back([&, t] {
            const auto &tenant = spec.mix->tenants[t];
            const std::vector<MemRef> trace = tenantTrace(
                tenant.kind, scale * tenant.scale, seed, t,
                requests);
            SessionHandle &session = sessions[t];
            Rng rng(experimentCellSeed(seed ^ 0xBE4C, t));
            issued[t] = trace.size();
            for (const MemRef &ref : trace) {
                const auto begin =
                    std::chrono::steady_clock::now();
                // Bounded retry: quota and rate sheds that outlast
                // the attempts stay shed — that is the overload
                // scenario's whole point. A sized scenario's only
                // shed is backpressure, which it outlasts.
                Status shed;
                do {
                    shed = session.submitRetry(ref.vaddr, ref.write,
                                               rng, 8, 20);
                } while (!spec.overload && !shed.ok() &&
                         retryableShed(shed.code()));
                const auto end =
                    std::chrono::steady_clock::now();
                perClient[t].record(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(end - begin)
                        .count()));
            }
        });
    }
    for (std::size_t t = 0; t < clients.size(); ++t)
        clients[t].join();
    st = daemon.drain(120.0);
    if (!st.ok())
        fatal("bench_serving: drain: " + st.toString());
    result.seconds = timer.seconds();

    result.totals = daemon.totals();
    for (const auto &h : perClient)
        result.latency.merge(h);
    for (const std::uint64_t n : issued)
        result.requests += n;
    if (result.totals.submitted !=
            result.totals.accepted + result.totals.shedTotal ||
        result.totals.accepted != result.totals.completed) {
        fatal("bench_serving: conservation violated in scenario " +
              spec.name);
    }
    if (!spec.overload && result.totals.accepted != result.requests)
        fatal("bench_serving: sized scenario " + spec.name +
              " did not accept every request");
    result.stateDigest = 14695981039346656037ull;
    for (const SessionSnapshot &snap : daemon.snapshots()) {
        result.stateDigest ^= daemon.stateDigest(snap.id).value();
        result.stateDigest *= 1099511628211ull;
    }
    daemon.stop();
    fs::remove_all(dir);
    return result;
}

void
printScenario(const ScenarioResult &r)
{
    const double opsPerSec =
        r.seconds > 0.0
            ? static_cast<double>(r.totals.completed) / r.seconds
            : 0.0;
    std::printf(
        "\n--- Scenario '%s' (%llu tenants) ---\n"
        "accepted=%llu completed=%llu shed=%llu "
        "(quota=%llu rate=%llu backpressure=%llu)\n"
        "ops/sec=%.0f p50=%lluns p99=%lluns p999=%lluns\n",
        r.name.c_str(),
        static_cast<unsigned long long>(r.totals.sessions),
        static_cast<unsigned long long>(r.totals.accepted),
        static_cast<unsigned long long>(r.totals.completed),
        static_cast<unsigned long long>(r.totals.shedTotal),
        static_cast<unsigned long long>(
            r.totals.shed[static_cast<int>(ShedClass::Quota)]),
        static_cast<unsigned long long>(
            r.totals.shed[static_cast<int>(ShedClass::RateLimit)]),
        static_cast<unsigned long long>(
            r.totals
                .shed[static_cast<int>(ShedClass::Backpressure)]),
        opsPerSec,
        static_cast<unsigned long long>(r.latency.percentileNs(500)),
        static_cast<unsigned long long>(r.latency.percentileNs(990)),
        static_cast<unsigned long long>(
            r.latency.percentileNs(999)));
}

} // namespace

int
main()
{
    const double scale = bench::envDouble("MOSAIC_SERVE_SCALE", 0.05);
    const auto requests = static_cast<std::uint64_t>(
        bench::envLong("MOSAIC_SERVE_REQUESTS", 4000));
    const auto workers = static_cast<unsigned>(
        bench::envLong("MOSAIC_SERVE_WORKERS", 2));
    const auto seed = static_cast<std::uint64_t>(
        bench::envLong("MOSAIC_SERVE_SEED", 1));

    const std::vector<InterferenceMix> mixes =
        defaultInterferenceMixes();

    std::cout << "mosaicd serving load: " << mixes.size()
              << " tenant mixes + 1 overload scenario\nscale="
              << scale << " (MOSAIC_SERVE_SCALE), requests/tenant="
              << requests << " (MOSAIC_SERVE_REQUESTS), workers="
              << workers << " (MOSAIC_SERVE_WORKERS), seed=" << seed
              << " (MOSAIC_SERVE_SEED)\n";

    auto report = bench::makeReport("serving", seed, workers);
    report.config("scale", scale);
    report.config("requestsPerTenant", requests);
    report.config("workers", static_cast<std::uint64_t>(workers));

    std::vector<ScenarioSpec> scenarios;
    for (const InterferenceMix &mix : mixes)
        scenarios.push_back({mix.name, &mix, false});
    // The overload scenario reuses the first mix's tenants against
    // a deliberately starved daemon.
    scenarios.push_back({"overload", &mixes.front(), true});

    const bench::WallTimer timer;
    const std::string base =
        (fs::temp_directory_path() / "bench_serving").string();
    double scenario_seconds = 0.0;
    bool overloadShed = false;
    for (const ScenarioSpec &spec : scenarios) {
        const ScenarioResult r = runScenario(
            spec, base + "_" + spec.name, scale, requests,
            workers, seed);
        printScenario(r);
        scenario_seconds += r.seconds;

        const std::string prefix = "serve." + spec.name;
        auto &m = report.metrics();
        m.counter(prefix + ".requests", r.requests);
        m.counter(prefix + ".sessions", r.totals.sessions);
        if (!spec.overload)
            m.counter(prefix + ".stateDigest", r.stateDigest);
        auto &timing = report.timing().values;
        registerServeTotals(timing, r.totals, prefix);
        r.latency.registerInto(timing, "latency." + spec.name);
        const double opsPerSec =
            r.seconds > 0.0
                ? static_cast<double>(r.totals.completed) /
                      r.seconds
                : 0.0;
        timing.gauge(prefix + ".opsPerSec", opsPerSec);
        if (spec.overload && r.totals.shedTotal > 0)
            overloadShed = true;
    }
    if (!overloadShed)
        fatal("bench_serving: the overload scenario did not shed — "
              "the backpressure path went unexercised");

    std::cout << "\n";
    bench::finishReport(report, std::cout, timer.seconds(),
                        scenario_seconds);

    std::cout << "\nDesign takeaway: admission control turns "
                 "overload into typed, bounded sheds instead of "
                 "queue collapse — the starved scenario sheds and "
                 "still conserves every request, while the sized "
                 "scenarios serve every tenant mix with flat "
                 "tails.\n";
    return 0;
}
