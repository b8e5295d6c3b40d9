#include "core/experiments.hh"

#include <algorithm>
#include <chrono>
#include <span>

#include "core/batch_pipeline.hh"
#include "core/translation_sim.hh"
#include "core/vm_touch_sink.hh"
#include "os/linux_vm.hh"
#include "os/mosaic_vm.hh"
#include "util/log.hh"
#include "util/parse.hh"

namespace mosaic
{

MemoryGeometry
ampleGeometry(std::uint64_t footprint_bytes)
{
    MemoryGeometry g;
    const std::uint64_t pages = footprint_bytes / pageSize + 1;
    const std::uint64_t frames = pages * 13 / 10 + 4096;
    g.numFrames = (frames / g.slotsPerBucket() + 1) * g.slotsPerBucket();
    return g;
}

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One Table 3 repetition, fully self-contained. */
struct Table3Sample
{
    std::uint64_t footprintBytes = 0;
    double firstConflictPct = -1.0; // < 0: no conflict observed
    double steadyPct = -1.0;        // < 0: no steady-state samples
    double seconds = 0.0;
};

Table3Sample
runTable3Cell(WorkloadKind kind, const Table3Options &options,
              unsigned run)
{
    const auto start = Clock::now();
    const std::uint64_t seed = experimentCellSeed(options.seed, run);

    const std::uint64_t mem_bytes =
        std::uint64_t{options.memFrames} * pageSize;
    const auto footprint = static_cast<std::uint64_t>(
        static_cast<double>(mem_bytes) * options.footprintFactor);
    const std::unique_ptr<Workload> workload =
        makeFootprintWorkload(kind, footprint, seed);

    MosaicVmConfig config;
    config.geometry.numFrames = options.memFrames;
    config.geometry.hashSeed = seed ^ 0xA110C;
    config.seed = seed;
    MosaicVm vm(config);

    // Scalar or batched per MOSAIC_BATCH; results are identical by
    // the touchBatch contract (tests/test_batch_pipeline.cc).
    const auto sink = makeVmTouchSink(vm, 1, batchBlockFromEnv());
    workload->run(*sink);
    sink->flush();

    Table3Sample sample;
    sample.footprintBytes = workload->info().footprintBytes;
    if (vm.stats().firstConflictUtilization >= 0) {
        sample.firstConflictPct =
            100.0 * vm.stats().firstConflictUtilization;
    }
    if (vm.stats().steadyUtilization.count() > 0)
        sample.steadyPct = 100.0 * vm.stats().steadyUtilization.mean();
    sample.seconds = secondsSince(start);
    return sample;
}

/** One Table 4 repetition (both VMs), fully self-contained. */
struct Table4Sample
{
    std::uint64_t footprintBytes = 0;
    double linuxSwapIo = 0.0;
    double mosaicSwapIo = 0.0;
    double seconds = 0.0;
};

Table4Sample
runTable4Cell(WorkloadKind kind, const Table4Options &options,
              unsigned run)
{
    const auto start = Clock::now();
    const std::uint64_t seed = experimentCellSeed(options.seed, run);

    const std::uint64_t mem_bytes =
        std::uint64_t{options.memFrames} * pageSize;
    const auto footprint = static_cast<std::uint64_t>(
        static_cast<double>(mem_bytes) * options.footprintFactor);
    const std::unique_ptr<Workload> workload =
        makeFootprintWorkload(kind, footprint, seed);

    Table4Sample sample;
    sample.footprintBytes = workload->info().footprintBytes;

    LinuxVmConfig linux_config;
    linux_config.numFrames = options.memFrames;
    LinuxVm linux_vm(linux_config);
    const unsigned block = batchBlockFromEnv();
    const auto linux_sink = makeVmTouchSink(linux_vm, 1, block);
    workload->run(*linux_sink);
    linux_sink->flush();
    sample.linuxSwapIo =
        static_cast<double>(linux_vm.stats().swapIns +
                            linux_vm.stats().swapOuts);

    MosaicVmConfig mosaic_config;
    mosaic_config.geometry.numFrames = options.memFrames;
    mosaic_config.geometry.hashSeed = seed ^ 0xA110C;
    mosaic_config.seed = seed;
    MosaicVm mosaic_vm(mosaic_config);
    const auto mosaic_sink = makeVmTouchSink(mosaic_vm, 1, block);
    workload->run(*mosaic_sink);
    mosaic_sink->flush();
    sample.mosaicSwapIo =
        static_cast<double>(mosaic_vm.stats().swapIns +
                            mosaic_vm.stats().swapOuts);

    sample.seconds = secondsSince(start);
    return sample;
}

} // namespace

Fig6Cell
runFig6Rows(WorkloadKind kind, const Fig6Options &options,
            std::size_t first, std::size_t count)
{
    const auto start = Clock::now();

    // The reference stream is shared by every cell of the panel (the
    // figure compares TLB geometries on one trace), so the workload
    // and sim seeds come from options.seed alone; this cell merely
    // owns private generator instances.
    const std::unique_ptr<Workload> workload =
        makeFig6Workload(kind, options.scale, options.seed);

    ensure(first + count <= options.waysList.size(),
           "fig6: ways rows out of range");
    const auto ways = std::span(options.waysList).subspan(first, count);
    TranslationSimConfig config;
    config.memory = ampleGeometry(workload->info().footprintBytes);
    config.tlbEntries = options.tlbEntries;
    config.waysList.assign(ways.begin(), ways.end());
    config.arities = options.arities;
    if (!options.kernelHugePages)
        config.kernel.accessEvery = 0;
    config.seed = options.seed;

    // MOSAIC_FULL_POOL=k (k >= 1) lifts the scaled-down-memory wart:
    // the cell runs against the paper's real 4 GiB / 1 Mi-frame pool,
    // demand-paged through a k-shard ShardedMosaicVm (DESIGN.md §17)
    // instead of a footprint-sized ample pool. Malformed values exit
    // via envUnsigned's strict parse — never a silent default.
    if (const std::uint64_t shards = envUnsigned("MOSAIC_FULL_POOL", 0);
            shards >= 1) {
        MemoryGeometry full = MemoryGeometry::paperLinuxPool();
        full.hashSeed = config.memory.hashSeed;
        config.memory = full;
        config.vmShards = shards;
    }

    TranslationSim sim(config);
    if (const unsigned block = batchBlockFromEnv(); block > 1) {
        BatchTranslationSink sink(sim, block);
        workload->run(sink);
        sink.flush();
    } else {
        workload->run(sim);
    }

    Fig6Cell cell;
    cell.footprintBytes = workload->info().footprintBytes;
    cell.accesses = sim.totalAccesses();
    for (std::size_t w = 0; w < ways.size(); ++w) {
        Fig6Row &row = cell.rows.emplace_back();
        row.ways = ways[w];
        row.vanillaMisses = sim.vanillaStats(w).misses;
        for (std::size_t a = 0; a < options.arities.size(); ++a)
            row.mosaicMisses.push_back(sim.mosaicStats(w, a).misses);
    }
    cell.seconds = secondsSince(start);
    return cell;
}

Fig6Result
runFig6(WorkloadKind kind, const Fig6Options &options,
        ThreadPool &pool)
{
    // One pass per worker: on one thread the whole panel shares a
    // single reference stream; with >= ways threads each row gets its
    // own. Rows depend only on the stream, so the grouping never
    // changes a result.
    const std::size_t ways = options.waysList.size();
    const std::size_t groups =
        std::min<std::size_t>(pool.threadCount(), ways);
    std::vector<Fig6Cell> cells(groups);
    parallelFor(pool, groups, [&](std::size_t g) {
        const std::size_t first = g * ways / groups;
        const std::size_t last = (g + 1) * ways / groups;
        cells[g] = runFig6Rows(kind, options, first, last - first);
    });

    Fig6Result result;
    result.kind = kind;
    result.arities = options.arities;
    for (Fig6Cell &cell : cells) {
        // Identical across cells (one shared reference stream).
        result.footprintBytes = cell.footprintBytes;
        result.accesses = cell.accesses;
        result.cellSeconds += cell.seconds;
        for (Fig6Row &row : cell.rows)
            result.rows.push_back(std::move(row));
    }
    return result;
}

Fig6Result
runFig6(WorkloadKind kind, const Fig6Options &options)
{
    return runFig6(kind, options, ThreadPool::shared());
}

Table3Row
runTable3(WorkloadKind kind, const Table3Options &options,
          ThreadPool &pool)
{
    std::vector<Table3Sample> samples(options.runs);
    parallelFor(pool, samples.size(), [&](std::size_t run) {
        samples[run] =
            runTable3Cell(kind, options, static_cast<unsigned>(run));
    });

    Table3Row row;
    row.kind = kind;
    for (const Table3Sample &sample : samples) {
        row.footprintBytes = sample.footprintBytes;
        if (sample.firstConflictPct >= 0)
            row.firstConflictPct.add(sample.firstConflictPct);
        if (sample.steadyPct >= 0)
            row.steadyPct.add(sample.steadyPct);
        row.cellSeconds += sample.seconds;
    }
    return row;
}

Table3Row
runTable3(WorkloadKind kind, const Table3Options &options)
{
    return runTable3(kind, options, ThreadPool::shared());
}

double
Table4Row::differencePct() const
{
    const double linux_io = linuxSwapIo.mean();
    const double mosaic_io = mosaicSwapIo.mean();
    if (linux_io == 0.0)
        return 0.0;
    return 100.0 * (linux_io - mosaic_io) / linux_io;
}

Table4Row
runTable4(WorkloadKind kind, const Table4Options &options,
          ThreadPool &pool)
{
    std::vector<Table4Sample> samples(options.runs);
    parallelFor(pool, samples.size(), [&](std::size_t run) {
        samples[run] =
            runTable4Cell(kind, options, static_cast<unsigned>(run));
    });

    Table4Row row;
    row.kind = kind;
    for (const Table4Sample &sample : samples) {
        row.footprintBytes = sample.footprintBytes;
        row.linuxSwapIo.add(sample.linuxSwapIo);
        row.mosaicSwapIo.add(sample.mosaicSwapIo);
        row.cellSeconds += sample.seconds;
    }
    return row;
}

Table4Row
runTable4(WorkloadKind kind, const Table4Options &options)
{
    return runTable4(kind, options, ThreadPool::shared());
}

} // namespace mosaic
