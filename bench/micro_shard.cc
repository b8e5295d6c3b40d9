/**
 * @file
 * Microbenchmarks for the sharded VM engine (DESIGN.md §17): the
 * Lemire route itself, forward-aware routing over many tenants,
 * the resident-touch hot path at 1 and 8 shards
 * (the sharding tax on the common case), a steady steal/unmap cycle
 * (the reclaim path, forwarding entry included), and a cross-shard
 * adoption round trip (mailbox post + drain + forwarded share).
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_gbench.hh"

#include "mem/shard_view.hh"
#include "os/sharded_vm.hh"

namespace
{

using namespace mosaic;

ShardedVmConfig
shardedConfig(std::size_t shards, std::size_t frames_per_shard)
{
    ShardedVmConfig c;
    c.base.geometry.numFrames = shards * frames_per_shard;
    c.shards = shards;
    return c;
}

void
BM_ShardRoute(benchmark::State &state)
{
    std::uint32_t asid = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            shardRoute(static_cast<Asid>(asid), 8));
        ++asid;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardRoute);

void
BM_ShardRouteForwarded(benchmark::State &state)
{
    // routeOf over 1,024 ASIDs while ~40 pages of 40 different ASIDs
    // are forwarded off home, as in a many-tenant machine after its
    // fill. Compare with BM_ShardRoute: the gap is what routing pays
    // for the forward map (DESIGN.md §17.4).
    ShardedMosaicVm vm(shardedConfig(4, 64 * 8));
    constexpr std::size_t tenants = 1024;
    std::vector<Asid> home0;
    for (std::size_t a = 1; a <= tenants; ++a) {
        if (vm.homeShard(static_cast<Asid>(a)) == 0)
            home0.push_back(static_cast<Asid>(a));
    }
    // Fill shard 0 round-robin, then fault fresh pages of 40 of its
    // tenants: the dry home hard-conflicts and each one steals.
    std::size_t i = 0;
    for (; vm.shard(0).residentPages() < vm.shard(0).numFrames(); ++i)
        vm.touch(home0[i % home0.size()], Vpn{i / home0.size()}, true);
    for (std::size_t k = 0; vm.counters().steals < 40; ++k)
        vm.touch(home0[k % home0.size()], Vpn{1000 + k}, true);
    std::size_t n = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(vm.routeOf(
            static_cast<Asid>(1 + n % tenants), Vpn{(n / tenants) % 64}));
        ++n;
    }
    state.counters["forwards"] =
        static_cast<double>(vm.forwardEntries());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardRouteForwarded);

void
BM_ShardTouchResident(benchmark::State &state)
{
    // The hot path at N shards: every touch routes, misses the
    // forward map, and hits a resident page in its home shard.
    // Compare the /1 and /8 series for the sharding tax over a plain
    // MosaicVm (micro_vm's BM_MosaicVmTouchResident).
    const auto shards = static_cast<std::size_t>(state.range(0));
    ShardedMosaicVm vm(shardedConfig(shards, 64 * 64));
    constexpr std::size_t tenants = 64;
    constexpr Vpn per_tenant = 64;
    for (Asid a = 1; a <= tenants; ++a) {
        for (Vpn v = 0; v < per_tenant; ++v)
            vm.touch(a, v, true);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const auto a =
            static_cast<Asid>(1 + (i % tenants));
        benchmark::DoNotOptimize(
            vm.touch(a, Vpn{(i / tenants) % per_tenant}, false));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardTouchResident)->Arg(1)->Arg(8);

void
BM_ShardStealBurst(benchmark::State &state)
{
    // Steady steal/unmap cycle: asid 1's home shard is packed full,
    // so each fresh touch places at the donor (forwarding entry
    // included) and the unmap returns the frame and kills the entry.
    ShardedVmConfig config = shardedConfig(2, 64 * 8);
    ShardedMosaicVm vm(config);
    Asid victim = 1;
    while (vm.homeShard(victim) != 0)
        ++victim;
    const auto full =
        static_cast<Vpn>(vm.numFrames() / 2);
    for (Vpn v = 0; v < full; ++v)
        vm.touch(victim, v, true);
    Vpn fresh = full;
    for (auto _ : state) {
        benchmark::DoNotOptimize(vm.touch(victim, fresh, true));
        vm.unmapRange(victim, fresh, 1);
        ++fresh;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardStealBurst);

void
BM_ShardAdopt(benchmark::State &state)
{
    // One cross-shard adoption round trip per iteration: share a ToC
    // from its owner to a tenant homed elsewhere (mailbox post +
    // drain + forwarded share), then unmap the destination so the
    // binding is reusable.
    ShardedVmConfig config = shardedConfig(4, 64 * 16);
    config.base.sharing = SharingMode::LocationId;
    ShardedMosaicVm vm(config);
    const unsigned arity = config.base.arity;
    Asid src = 1;
    while (vm.homeShard(src) != 0)
        ++src;
    Asid dst = static_cast<Asid>(src + 1);
    while (vm.homeShard(dst) == 0)
        ++dst;
    for (Vpn v = 0; v < arity; ++v)
        vm.touch(src, v, true);
    for (auto _ : state) {
        vm.shareRange(src, 0, dst, 0, arity);
        vm.unmapRange(dst, 0, arity);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardAdopt);

} // namespace

MOSAIC_GBENCH_MAIN("micro_shard");
