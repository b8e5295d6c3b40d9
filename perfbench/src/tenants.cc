/**
 * @file
 * Workload `tenants`: the million-tenants stream at benchmark scale —
 * 1,024 ASIDs fill, then churn, a ShardedMosaicVm at 1.15× overcommit
 * through touchBatch, on the shared pool (at most 4 threads). The pool
 * is small enough per shard that homes run dry and steals happen.
 * An event is one page touch.
 */

#include <algorithm>
#include <memory>

#include "common.hh"
#include "oracle/shard_oracle.hh"
#include "util/random.hh"

using namespace mosaic;

namespace perfbench
{

namespace
{

constexpr std::size_t tenantShards = 8;
constexpr std::size_t tenantAsids = 1024;

/** bench_million_tenants' pool at scale 0.02: 20,992 frames. */
constexpr double tenantScale = 0.02;

/** Churn touches per pool frame after the fill. */
constexpr std::size_t churnPerFrame = 6;

class TenantsWorkload final : public Workload
{
  public:
    explicit TenantsWorkload(std::uint64_t seed) : seed_(seed)
    {
        MemoryGeometry &g = config_.base.geometry;
        const std::size_t align = tenantShards * g.slotsPerBucket();
        const auto target = static_cast<std::size_t>(
            static_cast<double>(
                MemoryGeometry::paperLinuxPool().numFrames) *
            tenantScale);
        g.numFrames = (target + align - 1) / align * align;
        g.hashSeed = seed ^ 0xA110C;
        config_.base.seed = seed;
        config_.shards = tenantShards;
    }

    Round
    round(Trace *trace) override
    {
        Round r;
        const auto gen_start = Clock::now();
        const std::vector<PageTouch> touches = generate();
        const double gen = secondsSince(gen_start);
        const auto vm_start = Clock::now();
        ShardedMosaicVm vm(config_);
        const double construct = secondsSince(vm_start);
        r.setupSeconds = gen + construct;

        Digest digest;
        const ShardPass pass = touchBlocks(vm, touches, digest);
        r.wallSeconds = r.setupSeconds + pass.batchSeconds;
        r.parts = {{touches.size(), pass.batchSeconds}};
        r.attempted = 1;

        // Checked after the measured phase: the deep oracle scans
        // every frame.
        if (const auto violation = checkShardConservation(vm, true)) {
            r.errors.push_back("tenants: conservation: " + *violation);
            r.failed = 1;
        }
        const VmStats &stats = vm.stats();
        for (const std::uint64_t v :
                 {stats.minorFaults, stats.majorFaults, stats.swapIns,
                  stats.swapOuts, stats.conflicts,
                  stats.recoveredConflicts, stats.ghostEvictions,
                  stats.ghostRescues, vm.counters().steals,
                  vm.counters().deferredBatchOps,
                  std::uint64_t{vm.residentPages()},
                  std::uint64_t{vm.forwardEntries()}}) {
            digest.mix(v);
        }
        r.digest = digest.h;

        if (trace != nullptr) {
            trace->span("workloads.gen", gen);
            trace->span("setup", construct);
            trace->span("os.shard", pass.batchSeconds);
            trace->set("workloads.gen.s", gen);
            trace->set("core.access.s", pass.batchSeconds);
            publishShard(*trace, pass, true);
        }
        return r;
    }

    std::vector<PageTouch>
    stream(std::size_t cap) override
    {
        std::vector<PageTouch> touches = generate();
        if (touches.size() > cap)
            touches.resize(cap);
        return touches;
    }

    std::uint64_t
    pinnedDigest() const override
    {
        return 3670879531748227847ull;
    }

  private:
    /** The stream, a pure function of the seed: every tenant maps its
     *  whole range in turn, then random hot/cold churn. */
    std::vector<PageTouch>
    generate() const
    {
        const std::size_t frames = config_.base.geometry.numFrames;
        const std::size_t pages_per_asid = std::max<std::size_t>(
            16, frames * 23 / 20 / tenantAsids);
        const std::size_t churn = frames * churnPerFrame;
        std::vector<PageTouch> touches;
        touches.reserve(tenantAsids * pages_per_asid + churn);
        for (std::size_t a = 1; a <= tenantAsids; ++a) {
            for (std::size_t p = 0; p < pages_per_asid; ++p)
                touches.push_back({static_cast<Asid>(a), Vpn{p}, true});
        }
        Rng rng(seed_);
        for (std::size_t i = 0; i < churn; ++i) {
            const auto asid = static_cast<Asid>(1 + rng.below(tenantAsids));
            // 80% of touches stay in the tenant's hot front quarter.
            const std::size_t span =
                rng.chance(0.8) ? std::max<std::size_t>(1, pages_per_asid / 4)
                                : pages_per_asid;
            touches.push_back({asid, Vpn{rng.below(span)}, rng.chance(0.3)});
        }
        return touches;
    }

    std::uint64_t seed_;
    ShardedVmConfig config_;
};

} // namespace

std::unique_ptr<Workload>
makeTenants(std::uint64_t seed)
{
    return std::make_unique<TenantsWorkload>(seed);
}

} // namespace perfbench
