/**
 * @file
 * Microbenchmarks for the page-table structures: radix vs hashed
 * walks (software cost of the model itself), building and walking
 * many sparse tables, mapping installation, and the walk-cache
 * lookup path.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "bench_gbench.hh"

#include "pt/hashed_page_table.hh"
#include "pt/mosaic_page_table.hh"
#include "pt/vanilla_page_table.hh"
#include "pt/walk_cache.hh"
#include "util/random.hh"

namespace
{

using namespace mosaic;

void
BM_VanillaPtWalk(benchmark::State &state)
{
    VanillaPageTable pt;
    for (Vpn v = 0; v < 100000; ++v)
        pt.map(v, v);
    Vpn v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pt.walk(v));
        v = (v + 7919) % 100000;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VanillaPtWalk);

void
BM_MosaicPtWalk(benchmark::State &state)
{
    MosaicPageTable pt(4, 0x7F);
    for (Vpn v = 0; v < 100000; ++v)
        pt.setCpfn(v, static_cast<Cpfn>(v % 104));
    Vpn v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pt.walk(v));
        v = (v + 7919) % 100000;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MosaicPtWalk);

/**
 * Many small address spaces: 1,024 tables of 23 pages each — the
 * shape of a many-tenant machine, where the tables' node footprint
 * decides the cache misses.
 */
constexpr std::size_t sparseTenants = 1024;
constexpr Vpn sparsePages = 23;

std::vector<std::unique_ptr<MosaicPageTable>>
buildSparseTenants()
{
    std::vector<std::unique_ptr<MosaicPageTable>> tables;
    tables.reserve(sparseTenants);
    for (std::size_t t = 0; t < sparseTenants; ++t) {
        tables.push_back(std::make_unique<MosaicPageTable>(4, 0x7F));
        for (Vpn v = 0; v < sparsePages; ++v)
            tables.back()->setCpfn(v, static_cast<Cpfn>((t + v) % 104));
    }
    return tables;
}

void
BM_MosaicPtWalkSparseTenants(benchmark::State &state)
{
    // The sparse tables walked in random order.
    const auto tables = buildSparseTenants();
    Rng rng(1);
    std::vector<std::pair<const MosaicPageTable *, Vpn>> probes(1 << 16);
    for (auto &[table, vpn] : probes) {
        table = tables[rng.below(sparseTenants)].get();
        vpn = rng.below(sparsePages);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &[table, vpn] = probes[i++ & (probes.size() - 1)];
        benchmark::DoNotOptimize(table->walk(vpn));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MosaicPtWalkSparseTenants);

void
BM_MosaicPtBuildSparseTenants(benchmark::State &state)
{
    // Build and free the sparse tables: the page-table share of one
    // round of a many-tenant machine.
    for (auto _ : state)
        benchmark::DoNotOptimize(buildSparseTenants());
    state.SetItemsProcessed(state.iterations() * sparseTenants);
}
BENCHMARK(BM_MosaicPtBuildSparseTenants);

void
BM_HashedPtWalk(benchmark::State &state)
{
    HashedMosaicPageTable pt(4, 0x7F, 16384);
    for (Vpn v = 0; v < 100000; ++v)
        pt.setCpfn(1, v, static_cast<Cpfn>(v % 104));
    Vpn v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pt.walk(1, v));
        v = (v + 7919) % 100000;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashedPtWalk);

void
BM_VanillaPtMap(benchmark::State &state)
{
    VanillaPageTable pt;
    Vpn v = 0;
    for (auto _ : state) {
        pt.map(v, v);
        v = (v + 1) & ((Vpn{1} << 30) - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VanillaPtMap);

void
BM_WalkCacheLookup(benchmark::State &state)
{
    WalkCache cache(32);
    for (std::uint64_t key = 0; key < 16; ++key)
        cache.fill(1, key << 20, 4);
    std::uint64_t key = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.skippableLevels(1, (key & 15) << 20, 4));
        ++key;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalkCacheLookup);

} // namespace

MOSAIC_GBENCH_MAIN("micro_pt");
