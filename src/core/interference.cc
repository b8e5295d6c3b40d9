#include "core/interference.hh"

#include <algorithm>
#include <chrono>
#include <span>

#include "core/batch_pipeline.hh"
#include "core/experiment_export.hh"
#include "core/translation_sim.hh"

namespace mosaic
{

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
designMetric(const TranslationDesign &design, std::string_view key)
{
    std::uint64_t out = 0;
    forEachDesignMetric(design,
                        [&](const char *name, std::uint64_t value) {
                            if (key == name)
                                out = value;
                        });
    return out;
}

/** Design indices in the cell's spec list. */
constexpr std::size_t kVanilla = 0;
constexpr std::size_t kMosaic = 1;
constexpr std::size_t kPwc = 2;

std::vector<std::string>
interferenceSpecs(const InterferenceOptions &options)
{
    const std::string a = std::to_string(options.arity);
    return {
        "vanilla",
        "mosaic:arity=" + a,
        "pwc:base=mosaic,arity=" + a,
    };
}

TenantDesignCounters
snapshot(const TranslationSim &sim)
{
    TenantDesignCounters s;
    s.vanillaMisses = designMetric(sim.design(kVanilla), "misses");
    s.vanillaWalkRefs = designMetric(sim.design(kVanilla), "walkRefs");
    s.mosaicMisses = designMetric(sim.design(kMosaic), "misses");
    s.mosaicWalkRefs = designMetric(sim.design(kMosaic), "walkRefs");
    s.pwcMisses = designMetric(sim.design(kPwc), "misses");
    s.pwcWalkRefs = designMetric(sim.design(kPwc), "walkRefs");
    return s;
}

void
accumulateDelta(TenantDesignCounters &into,
                const TenantDesignCounters &before,
                const TenantDesignCounters &after)
{
    into.vanillaMisses += after.vanillaMisses - before.vanillaMisses;
    into.vanillaWalkRefs +=
        after.vanillaWalkRefs - before.vanillaWalkRefs;
    into.mosaicMisses += after.mosaicMisses - before.mosaicMisses;
    into.mosaicWalkRefs += after.mosaicWalkRefs - before.mosaicWalkRefs;
    into.pwcMisses += after.pwcMisses - before.pwcMisses;
    into.pwcWalkRefs += after.pwcWalkRefs - before.pwcWalkRefs;
}

/** Feed trace[begin, end) to the sim, honoring MOSAIC_BATCH. */
void
feed(TranslationSim &sim, const std::vector<MemRef> &trace,
     std::size_t begin, std::size_t end, unsigned block)
{
    if (block > 1) {
        for (std::size_t i = begin; i < end; i += block) {
            const std::size_t n = std::min<std::size_t>(block, end - i);
            sim.accessBatch(std::span<const MemRef>(&trace[i], n));
        }
    } else {
        for (std::size_t i = begin; i < end; ++i)
            sim.access(trace[i].vaddr, trace[i].write);
    }
}

std::uint64_t
slowdownPermille(std::uint64_t accesses, std::uint64_t shared_walk,
                 std::uint64_t solo_walk)
{
    const std::uint64_t solo_cost = accesses + solo_walk;
    if (solo_cost == 0)
        return 1000;
    return (accesses + shared_walk) * 1000 / solo_cost;
}

} // namespace

std::uint64_t
InterferenceTenantResult::vanillaSlowdownPermille() const
{
    return slowdownPermille(accesses, shared.vanillaWalkRefs,
                            solo.vanillaWalkRefs);
}

std::uint64_t
InterferenceTenantResult::mosaicSlowdownPermille() const
{
    return slowdownPermille(accesses, shared.mosaicWalkRefs,
                            solo.mosaicWalkRefs);
}

std::vector<InterferenceMix>
defaultInterferenceMixes()
{
    return {
        {"gpu_kv",
         {{WorkloadKind::WarpGpu, 1.0}, {WorkloadKind::KvServer, 1.0}}},
        {"server_mix",
         {{WorkloadKind::KvServer, 1.0},
          {WorkloadKind::WebSession, 1.0},
          {WorkloadKind::ScanAnalytics, 1.0}}},
        {"gpu_scan",
         {{WorkloadKind::WarpGpu, 1.0},
          {WorkloadKind::ScanAnalytics, 1.0}}},
        {"full_stack",
         {{WorkloadKind::WarpGpu, 1.0},
          {WorkloadKind::KvServer, 1.0},
          {WorkloadKind::WebSession, 1.0},
          {WorkloadKind::ScanAnalytics, 1.0}}},
    };
}

InterferenceCell
runInterferenceCell(const InterferenceOptions &options,
                    std::size_t mix_index)
{
    const auto start = Clock::now();
    const InterferenceMix &mix = options.mixes.at(mix_index);
    const unsigned block = batchBlockFromEnv();

    // Record each tenant's reference stream; streams are pure
    // functions of (seed, mix, tenant), never of scheduling.
    std::vector<std::vector<MemRef>> traces(mix.tenants.size());
    InterferenceCell cell;
    cell.mixName = mix.name;
    cell.tenants.resize(mix.tenants.size());
    std::uint64_t total_footprint = 0;
    for (std::size_t t = 0; t < mix.tenants.size(); ++t) {
        const InterferenceTenant &tenant = mix.tenants[t];
        const auto workload = makeFig6Workload(
            tenant.kind, options.scale * tenant.scale,
            experimentCellSeed(options.seed, mix_index * 64 + t));
        VectorSink sink;
        workload->run(sink);
        traces[t] = sink.trace();
        cell.tenants[t].kind = tenant.kind;
        cell.tenants[t].footprintBytes =
            workload->info().footprintBytes;
        cell.tenants[t].accesses = traces[t].size();
        total_footprint += workload->info().footprintBytes;
    }

    TranslationSimConfig config;
    config.memory = ampleGeometry(total_footprint);
    config.tlbEntries = options.tlbEntries;
    // No grid: the spec designs are the cell; the arity is the
    // sharded VM's.
    config.waysList = {};
    config.arities = {options.arity};
    config.kernel.accessEvery = 0;
    config.designWays = options.ways;
    config.designSpecs = interferenceSpecs(options);
    config.seed = options.seed;

    // Shared run: round-robin quanta until every trace drains, with
    // per-tenant delta attribution at quantum boundaries.
    {
        config.vmShards = options.vmShards;
        TranslationSim sim(config);
        std::vector<std::size_t> cursor(mix.tenants.size(), 0);
        bool work_left = true;
        while (work_left) {
            work_left = false;
            for (std::size_t t = 0; t < mix.tenants.size(); ++t) {
                const auto &trace = traces[t];
                if (cursor[t] >= trace.size())
                    continue;
                sim.setActiveAsid(static_cast<Asid>(t + 1));
                const std::size_t end = std::min(
                    trace.size(), cursor[t] + options.quantum);
                const TenantDesignCounters before = snapshot(sim);
                feed(sim, trace, cursor[t], end, block);
                cursor[t] = end;
                accumulateDelta(cell.tenants[t].shared, before,
                                snapshot(sim));
                cell.tenants[t].reachPagesSum +=
                    sim.design(kMosaic).reachPages();
                ++cell.tenants[t].quanta;
                work_left = work_left || cursor[t] < trace.size();
            }
        }
        cell.accesses = sim.totalAccesses();
        if (const ShardedMosaicVm *vm = sim.shardedVm()) {
            const VmStats &s = vm->stats();
            cell.vmShards = vm->numShards();
            cell.vmMinorFaults = s.minorFaults;
            cell.vmSwapOuts = s.swapOuts;
            cell.vmConflicts = s.conflicts;
            cell.vmSteals = vm->counters().steals;
            cell.vmResidentPages = vm->residentPages();
        }
    }

    // Solo baselines: each tenant alone on an identical machine.
    config.vmShards = 0;
    for (std::size_t t = 0; t < mix.tenants.size(); ++t) {
        TranslationSim solo(config);
        solo.setActiveAsid(static_cast<Asid>(t + 1));
        feed(solo, traces[t], 0, traces[t].size(), block);
        accumulateDelta(cell.tenants[t].solo, TenantDesignCounters{},
                        snapshot(solo));
    }

    cell.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    return cell;
}

std::vector<InterferenceCell>
runInterference(const InterferenceOptions &options, ThreadPool &pool)
{
    std::vector<InterferenceCell> cells(options.mixes.size());
    parallelFor(pool, cells.size(), [&](std::size_t i) {
        cells[i] = runInterferenceCell(options, i);
    });
    return cells;
}

std::vector<InterferenceCell>
runInterference(const InterferenceOptions &options)
{
    return runInterference(options, ThreadPool::shared());
}

void
recordInterference(telemetry::Registry &r, const InterferenceCell &cell)
{
    const std::string mix = "interference." + cell.mixName;
    r.counter(mix + ".accesses", cell.accesses);
    r.counter(mix + ".tenants", cell.tenants.size());
    if (cell.vmShards != 0) {
        r.counter(mix + ".vm.shards", cell.vmShards);
        r.counter(mix + ".vm.minorFaults", cell.vmMinorFaults);
        r.counter(mix + ".vm.swapOuts", cell.vmSwapOuts);
        r.counter(mix + ".vm.conflicts", cell.vmConflicts);
        r.counter(mix + ".vm.steals", cell.vmSteals);
        r.counter(mix + ".vm.residentPages", cell.vmResidentPages);
    }
    for (std::size_t t = 0; t < cell.tenants.size(); ++t) {
        const InterferenceTenantResult &res = cell.tenants[t];
        const std::string base = mix + ".tenant" + std::to_string(t) +
                                 "." + metricWorkloadKey(res.kind);
        r.counter(base + ".footprintBytes", res.footprintBytes);
        r.counter(base + ".accesses", res.accesses);
        r.counter(base + ".quanta", res.quanta);
        r.counter(base + ".meanReachPages", res.meanReachPages());
        const auto record = [&](const std::string &prefix,
                                const TenantDesignCounters &c) {
            r.counter(prefix + ".vanilla.misses", c.vanillaMisses);
            r.counter(prefix + ".vanilla.walkRefs", c.vanillaWalkRefs);
            r.counter(prefix + ".mosaic.misses", c.mosaicMisses);
            r.counter(prefix + ".mosaic.walkRefs", c.mosaicWalkRefs);
            r.counter(prefix + ".pwc.misses", c.pwcMisses);
            r.counter(prefix + ".pwc.walkRefs", c.pwcWalkRefs);
        };
        record(base + ".shared", res.shared);
        record(base + ".solo", res.solo);
        r.counter(base + ".slowdown.vanillaPermille",
                  res.vanillaSlowdownPermille());
        r.counter(base + ".slowdown.mosaicPermille",
                  res.mosaicSlowdownPermille());
    }
}

} // namespace mosaic
