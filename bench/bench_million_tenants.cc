/**
 * @file
 * The million-tenants sweep (DESIGN.md §17, ROADMAP item 1): one
 * simulated machine running the paper's full 4 GiB / 1 Mi-frame
 * iceberg pool as a ShardedMosaicVm, demand-paged by thousands of
 * concurrent ASIDs under slight overcommit — the regime where the
 * Horizon LRU, the per-shard free bitmaps, and work-stealing reclaim
 * all engage at once.
 *
 * The access stream is a pure function of the seed: blocks of
 * hot/cold touches across hash-routed tenants, driven through
 * touchBatch on MOSAIC_THREADS workers. The bench reports throughput
 * and per-block p50/p99 latency (wall-clock, written under "timing"
 * so the metrics stay byte-comparable), shard imbalance (max/mean resident pages, permille),
 * steal and deferred-op counts, and an FNV digest over every
 * returned PFN plus the final stats — every metric is bit-identical
 * for any MOSAIC_THREADS value at a fixed shard count, which CI
 * checks by diffing two runs. The whole-machine conservation oracle
 * runs during and after the sweep; a violation is fatal.
 *
 * Knobs: MOSAIC_MT_SCALE (default 1.0) scales the pool and tenant
 * count (CI runs 0.02); MOSAIC_MT_SHARDS (default 8);
 * MOSAIC_MT_ASIDS / MOSAIC_MT_OPS override the scale-derived tenant
 * and op counts; MOSAIC_MT_SEED selects the stream.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "mem/geometry.hh"
#include "oracle/shard_oracle.hh"
#include "os/sharded_vm.hh"
#include "telemetry/histogram.hh"
#include "util/log.hh"
#include "util/random.hh"
#include "util/table.hh"

using namespace mosaic;

namespace
{

void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 1099511628211ull;
    }
}

void
checkConservation(const ShardedMosaicVm &vm, bool deep,
                  const char *when)
{
    if (const auto violation = checkShardConservation(vm, deep))
        fatal(std::string("million_tenants: conservation violated ") +
              when + ": " + *violation);
}

} // namespace

int
main()
{
    const double scale = bench::envDouble("MOSAIC_MT_SCALE", 1.0);
    const auto shards = static_cast<std::size_t>(
        bench::envLong("MOSAIC_MT_SHARDS", 8));
    const auto seed = static_cast<std::uint64_t>(
        bench::envLong("MOSAIC_MT_SEED", 1));

    // The paper's pool, scaled: rounded up so it splits into valid
    // per-shard geometries (each shard needs more buckets than hash
    // choices).
    MemoryGeometry g;
    const std::size_t align = shards * g.slotsPerBucket();
    const auto target = static_cast<std::size_t>(
        static_cast<double>(MemoryGeometry::paperLinuxPool().numFrames) *
        scale);
    const std::size_t floor =
        shards * (g.backChoices + 1) * g.slotsPerBucket();
    g.numFrames =
        (std::max(target, floor) + align - 1) / align * align;
    g.hashSeed = seed ^ 0xA110C;

    const auto asids = static_cast<std::size_t>(bench::envLong(
        "MOSAIC_MT_ASIDS",
        std::max(64L, static_cast<long>(4096.0 * scale))));
    ensure(asids <= 60000, "million_tenants: ASIDs must fit uint16");

    // Overcommit: the aggregate working set exceeds the pool by
    // 15%, so the fill phase dries shards out (staggered, because
    // tenants map one after another) and steady state keeps
    // evicting.
    const std::size_t total_pages = g.numFrames * 23 / 20;
    const std::size_t pages_per_asid =
        std::max<std::size_t>(16, total_pages / asids);
    const auto ops = static_cast<std::size_t>(bench::envLong(
        "MOSAIC_MT_OPS", static_cast<long>(g.numFrames * 3)));

    ShardedVmConfig config;
    config.base.geometry = g;
    config.base.seed = seed;
    config.shards = shards;
    ShardedMosaicVm vm(config);

    std::cout << "Million-tenants sweep: " << withCommas(asids)
              << " ASIDs on " << withCommas(g.numFrames)
              << " frames across " << shards << " shards, "
              << withCommas(ops) << " touches, "
              << withCommas(pages_per_asid)
              << " pages/ASID (1.15x overcommit)\nscale=" << scale
              << " (MOSAIC_MT_SCALE), shards=" << shards
              << " (MOSAIC_MT_SHARDS), seed=" << seed
              << " (MOSAIC_MT_SEED)\n";

    auto report = bench::makeReport("million_tenants", seed,
                                    ThreadPool::shared().threadCount());
    report.config("scale", scale);
    report.config("shards", static_cast<std::uint64_t>(shards));
    report.config("asids", static_cast<std::uint64_t>(asids));
    report.config("frames", static_cast<std::uint64_t>(g.numFrames));
    report.config("pagesPerAsid",
                  static_cast<std::uint64_t>(pages_per_asid));
    report.config("ops", static_cast<std::uint64_t>(ops));

    bench::WallTimer timer;
    Rng rng(seed);
    telemetry::LatencyHistogram hist;
    std::uint64_t digest = 1469598103934665603ull;

    constexpr std::size_t block = 8192;
    std::vector<PageTouch> touches(block);
    std::vector<Pfn> out(block);
    std::size_t done = 0, blocks = 0;
    const auto run_block = [&](std::size_t n) {
        const auto start = std::chrono::steady_clock::now();
        vm.touchBatch({touches.data(), n}, out.data());
        hist.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
        for (std::size_t i = 0; i < n; ++i)
            fnvMix(digest, out[i]);
        done += n;
        // Sampled mid-run conservation (shallow: the deep frame scan
        // is O(pool) and runs once at the end).
        if (++blocks % 64 == 0)
            checkConservation(vm, false, "mid-run");
    };

    // Fill phase: every tenant demand-maps its whole range, one
    // tenant after another — 1.15x the pool in total, so late
    // tenants find their home shards dry while early-filled shards
    // still hold free frames: the steal path runs for real.
    std::size_t filled = 0;
    for (std::size_t a = 1; a <= asids; ++a) {
        for (std::size_t p = 0; p < pages_per_asid; ++p) {
            touches[filled++] =
                PageTouch{static_cast<Asid>(a), Vpn{p}, true};
            if (filled == block) {
                run_block(filled);
                filled = 0;
            }
        }
    }
    if (filled > 0)
        run_block(filled);
    const std::size_t fill_ops = done;

    // Churn phase: random hot/cold touches across all tenants.
    while (done < fill_ops + ops) {
        const std::size_t n = std::min(block, fill_ops + ops - done);
        for (std::size_t i = 0; i < n; ++i) {
            const auto asid =
                static_cast<Asid>(1 + rng.below(asids));
            // 80% of touches stay in the tenant's hot front quarter.
            const auto span = rng.chance(0.8)
                                  ? std::max<std::size_t>(
                                        1, pages_per_asid / 4)
                                  : pages_per_asid;
            touches[i] = PageTouch{asid, Vpn{rng.below(span)},
                                   rng.chance(0.3)};
        }
        run_block(n);
    }

    const double seconds = timer.seconds();
    checkConservation(vm, true, "after the sweep");
    std::cout << "conservation: OK (sampled shallow mid-run, deep "
                 "frame scan at the end)\n";

    const VmStats &stats = vm.stats();
    const ShardCounters &counters = vm.counters();
    fnvMix(digest, stats.minorFaults);
    fnvMix(digest, stats.majorFaults);
    fnvMix(digest, stats.swapIns);
    fnvMix(digest, stats.swapOuts);
    fnvMix(digest, stats.conflicts);
    fnvMix(digest, stats.recoveredConflicts);
    fnvMix(digest, stats.ghostEvictions);
    fnvMix(digest, stats.ghostRescues);
    fnvMix(digest, counters.steals);
    fnvMix(digest, vm.residentPages());
    fnvMix(digest, vm.forwardEntries());

    // Shard imbalance: max over mean resident pages, permille.
    std::uint64_t max_resident = 0, sum_resident = 0;
    TextTable table({"shard", "resident", "minor faults", "swap outs",
                     "conflicts"});
    for (std::size_t s = 0; s < vm.numShards(); ++s) {
        const std::size_t resident = vm.shard(s).residentPages();
        max_resident = std::max<std::uint64_t>(max_resident, resident);
        sum_resident += resident;
        const VmStats &ss = vm.shard(s).stats();
        table.beginRow()
            .cell(s)
            .cell(resident)
            .cell(ss.minorFaults)
            .cell(ss.swapOuts)
            .cell(ss.conflicts);
        const std::string base = "mt.shard" + std::to_string(s);
        report.metrics().counter(base + ".residentPages", resident);
        report.metrics().counter(base + ".minorFaults",
                                 ss.minorFaults);
    }
    const double mean_resident =
        static_cast<double>(sum_resident) /
        static_cast<double>(vm.numShards());
    const std::uint64_t imbalance_permille =
        mean_resident == 0.0
            ? 0
            : static_cast<std::uint64_t>(
                  1000.0 * static_cast<double>(max_resident) /
                  mean_resident);
    bench::printTable(table, std::cout);

    char line[256];
    std::snprintf(line, sizeof line,
                  "\nthroughput=%.0f touches/s  imbalance=%llu "
                  "permille (max/mean resident)  steals=%llu  "
                  "deferredBatchOps=%llu  digest=%llu\n",
                  static_cast<double>(done) / seconds,
                  static_cast<unsigned long long>(imbalance_permille),
                  static_cast<unsigned long long>(counters.steals),
                  static_cast<unsigned long long>(
                      counters.deferredBatchOps),
                  static_cast<unsigned long long>(digest));
    std::cout << line;

    auto &m = report.metrics();
    m.counter("mt.digest", digest);
    m.counter("mt.ops", done);
    m.counter("mt.residentPages", vm.residentPages());
    m.counter("mt.forwardEntries", vm.forwardEntries());
    m.counter("mt.minorFaults", stats.minorFaults);
    m.counter("mt.majorFaults", stats.majorFaults);
    m.counter("mt.swapIns", stats.swapIns);
    m.counter("mt.swapOuts", stats.swapOuts);
    m.counter("mt.conflicts", stats.conflicts);
    m.counter("mt.recoveredConflicts", stats.recoveredConflicts);
    m.counter("mt.ghostEvictions", stats.ghostEvictions);
    m.counter("mt.ghostRescues", stats.ghostRescues);
    m.counter("mt.steals", counters.steals);
    m.counter("mt.deferredBatchOps", counters.deferredBatchOps);
    m.counter("mt.imbalancePermille", imbalance_permille);
    auto &timing = report.timing().values;
    timing.gauge("mt.throughputTouchesPerSec",
                 static_cast<double>(done) / seconds);
    hist.registerInto(timing, "latency.touchBlock");

    bench::finishReport(report, std::cout, seconds);

    std::cout << "\nDesign takeaway: hash-routed tenants keep the "
                 "shards within a few percent of each other without "
                 "any balancing traffic, and steal reclaim only "
                 "engages when the overcommit actually dries a shard "
                 "out — the paper's single-pool conflict behaviour, "
                 "preserved at full 4 GiB scale.\n";
    return 0;
}
