/**
 * @file
 * Microbenchmarks for the TLB models: hit and miss-path costs of
 * the vanilla and mosaic TLBs across associativities, and ToC fill
 * cost across arities. These bound the simulator's throughput (the
 * Figure 6 sweep feeds every access to a grid of these), and the two
 * TranslationSim benches time that whole grid per reference, with
 * and without immediate repeats (DESIGN.md §14.3).
 */

#include <benchmark/benchmark.h>

#include "bench_gbench.hh"

#include <vector>

#include "core/translation_sim.hh"
#include "hash/mix.hh"
#include "tlb/mosaic_tlb.hh"
#include "tlb/vanilla_tlb.hh"
#include "util/log.hh"

namespace
{

using mosaic::Addr;
using mosaic::Cpfn;
using mosaic::MosaicTlb;
using mosaic::TlbGeometry;
using mosaic::TranslationSim;
using mosaic::TranslationSimConfig;
using mosaic::VanillaTlb;
using mosaic::Vpn;

void
BM_VanillaLookupHit(benchmark::State &state)
{
    const auto ways = static_cast<unsigned>(state.range(0));
    VanillaTlb tlb(TlbGeometry{1024, ways});
    for (Vpn v = 0; v < 512; ++v)
        tlb.fill(1, v, v);
    Vpn v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(1, v));
        v = (v + 1) % 512;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VanillaLookupHit)->Arg(1)->Arg(4)->Arg(8)->Arg(1024);

void
BM_VanillaLookupMiss(benchmark::State &state)
{
    VanillaTlb tlb(TlbGeometry{1024, 4});
    Vpn v = 1 << 20;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(1, v));
        ++v; // never filled: always a miss
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VanillaLookupMiss);

void
BM_MosaicLookupHit(benchmark::State &state)
{
    const auto ways = static_cast<unsigned>(state.range(0));
    MosaicTlb tlb(TlbGeometry{1024, ways}, 4);
    const std::vector<Cpfn> toc(4, 9);
    for (Vpn v = 0; v < 2048; v += 4)
        tlb.fill(1, v, toc, 0x7F);
    Vpn v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(1, v));
        v = (v + 1) % 2048;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MosaicLookupHit)->Arg(1)->Arg(4)->Arg(8)->Arg(1024);

void
BM_MosaicFillToc(benchmark::State &state)
{
    const auto arity = static_cast<unsigned>(state.range(0));
    MosaicTlb tlb(TlbGeometry{1024, 4}, arity);
    const std::vector<Cpfn> toc(arity, 9);
    Vpn v = 0;
    for (auto _ : state) {
        tlb.fill(1, v, toc, 0x7F);
        v += arity;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MosaicFillToc)->Arg(4)->Arg(16)->Arg(64);

void
BM_MosaicConventionalLookup(benchmark::State &state)
{
    MosaicTlb tlb(TlbGeometry{1024, 4}, 4);
    for (Vpn v = 0; v < 512; ++v)
        tlb.fillConventional(1, v, v);
    Vpn v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookupConventional(1, v));
        v = (v + 1) % 512;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MosaicConventionalLookup);

/** 8,192 references over 4,096 pages, read cyclically; no reference
 *  is to the page of the one before it, the wrap included. */
std::vector<Addr>
distinctStream()
{
    constexpr Vpn pages = 4096;
    std::vector<Addr> addrs;
    Vpn vpn = 0;
    for (std::uint64_t i = 0; i < 2 * pages; ++i) {
        vpn = (vpn + 1 + mosaic::mix64(i) % (pages - 1)) % pages;
        addrs.push_back(vpn << mosaic::pageShift);
    }
    mosaic::ensure(addrs.back() != addrs.front(),
                   "micro_tlb: stream repeats across its wrap");
    return addrs;
}

/** TranslationSim::access per reference over @p addrs through the
 *  full Fig-6 grid (5 ways x vanilla + mosaic-4..64), kernel stream
 *  off, after a warm-up pass has mapped every page. */
void
runGrid(benchmark::State &state, const std::vector<Addr> &addrs)
{
    TranslationSimConfig config;
    config.kernel.accessEvery = 0;
    TranslationSim sim(config);
    for (const Addr a : addrs)
        sim.access(a, false);
    std::size_t i = 0;
    for (auto _ : state) {
        sim.access(addrs[i], false);
        if (++i == addrs.size())
            i = 0;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_TranslationSimGridDistinct(benchmark::State &state)
{
    runGrid(state, distinctStream());
}
BENCHMARK(BM_TranslationSimGridDistinct);

// The same stream with every reference issued twice: half the
// references repeat the page just translated.
void
BM_TranslationSimGridRepeat(benchmark::State &state)
{
    std::vector<Addr> twice;
    for (const Addr a : distinctStream()) {
        twice.push_back(a);
        twice.push_back(a);
    }
    runGrid(state, twice);
}
BENCHMARK(BM_TranslationSimGridRepeat);

} // namespace

MOSAIC_GBENCH_MAIN("micro_tlb");
