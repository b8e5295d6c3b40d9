#include "oracle/shard_oracle.hh"

#include <map>
#include <sstream>

namespace mosaic
{

namespace
{

std::optional<std::string>
fail(const std::string &message)
{
    return message;
}

} // namespace

std::optional<std::string>
checkShardConservation(const ShardedMosaicVm &vm, bool deep)
{
    const std::size_t shards = vm.numShards();
    const PoolPartition &part = vm.partition();

    // Partition exactness: the shard slices tile the global pool.
    std::size_t sum_frames = 0;
    for (std::size_t s = 0; s < shards; ++s)
        sum_frames += vm.shard(s).numFrames();
    if (sum_frames != vm.numFrames() ||
            sum_frames != part.numShards * part.framesPerShard) {
        std::ostringstream out;
        out << "shard frame sum " << sum_frames << " != global "
            << vm.numFrames();
        return fail(out.str());
    }

    // Conservation: per-shard counts (recomputed from the frame
    // table when deep) sum to the machine-wide figures.
    std::size_t sum_resident = 0;
    std::size_t sum_ghosts = 0;
    std::size_t sum_bindings = 0;
    std::size_t sum_users = 0;
    for (std::size_t s = 0; s < shards; ++s) {
        const MosaicVm &sv = vm.shard(s);
        if (deep) {
            std::size_t used = 0;
            std::size_t ghosts = 0;
            for (Pfn pfn = 0; pfn < sv.numFrames(); ++pfn) {
                const Frame &f = sv.frameTable().frame(pfn);
                if (!f.used)
                    continue;
                ++used;
                if (f.lastAccess < sv.horizon())
                    ++ghosts;
            }
            if (used != sv.residentPages()) {
                std::ostringstream out;
                out << "shard " << s << " resident count " << used
                    << " != reported " << sv.residentPages();
                return fail(out.str());
            }
            if (ghosts != sv.ghostPages()) {
                std::ostringstream out;
                out << "shard " << s << " ghost count " << ghosts
                    << " != reported " << sv.ghostPages();
                return fail(out.str());
            }
        }
        sum_resident += sv.residentPages();
        sum_ghosts += sv.ghostPages();
        sum_bindings += sv.locationBindings();
        sum_users += sv.locationUsers();
    }
    if (sum_resident != vm.residentPages())
        return fail("resident-page sum != machine residentPages()");
    if (sum_ghosts != vm.ghostPages())
        return fail("ghost-page sum != machine ghostPages()");
    if (sum_bindings != vm.locationBindings())
        return fail("binding sum != machine locationBindings()");
    if (sum_users != vm.locationUsers())
        return fail("location-user sum != machine locationUsers()");
    if (sum_users < sum_bindings)
        return fail("fewer location users than bindings");

    // Stat conservation: an independent fold of the per-shard stats
    // must reproduce the machine aggregate field for field.
    VmStats fold;
    for (std::size_t s = 0; s < shards; ++s) {
        const VmStats &st = vm.shard(s).stats();
        fold.minorFaults += st.minorFaults;
        fold.majorFaults += st.majorFaults;
        fold.swapIns += st.swapIns;
        fold.swapOuts += st.swapOuts;
        fold.conflicts += st.conflicts;
        fold.recoveredConflicts += st.recoveredConflicts;
        fold.ghostEvictions += st.ghostEvictions;
        fold.ghostRescues += st.ghostRescues;
        if (st.firstConflictUtilization >= 0 &&
                (fold.firstConflictUtilization < 0 ||
                 st.firstConflictUtilization <
                     fold.firstConflictUtilization))
            fold.firstConflictUtilization = st.firstConflictUtilization;
        if (st.firstSwapOutUtilization >= 0 &&
                (fold.firstSwapOutUtilization < 0 ||
                 st.firstSwapOutUtilization <
                     fold.firstSwapOutUtilization))
            fold.firstSwapOutUtilization = st.firstSwapOutUtilization;
        fold.steadyUtilization.merge(st.steadyUtilization);
    }
    const VmStats &agg = vm.stats();
    if (fold.minorFaults != agg.minorFaults ||
            fold.majorFaults != agg.majorFaults ||
            fold.swapIns != agg.swapIns ||
            fold.swapOuts != agg.swapOuts ||
            fold.conflicts != agg.conflicts ||
            fold.recoveredConflicts != agg.recoveredConflicts ||
            fold.ghostEvictions != agg.ghostEvictions ||
            fold.ghostRescues != agg.ghostRescues ||
            fold.firstConflictUtilization !=
                agg.firstConflictUtilization ||
            fold.firstSwapOutUtilization !=
                agg.firstSwapOutUtilization ||
            fold.steadyUtilization.count() !=
                agg.steadyUtilization.count() ||
            fold.steadyUtilization.sum() != agg.steadyUtilization.sum())
        return fail("aggregate stats != fold of per-shard stats");

    // Routing validity: forwarding entries target a real shard other
    // than the key's home (entries pointing home are erased, never
    // written).
    std::optional<std::string> bad;
    vm.forEachForward([&](std::uint64_t key, std::uint32_t target) {
        if (bad)
            return;
        const Asid asid = static_cast<Asid>(key >> 48);
        if (target >= shards) {
            bad = "forward entry targets a nonexistent shard";
        } else if (target == vm.homeShard(asid)) {
            std::ostringstream out;
            out << "forward entry for asid " << asid
                << " points at its home shard " << target;
            bad = out.str();
        }
    });
    if (bad)
        return bad;

    // Routing counts: the per-ASID forward counts routeOf trusts to
    // skip its probe must equal a recount of the entries themselves.
    std::map<Asid, std::size_t> recount;
    vm.forEachForward([&](std::uint64_t key, std::uint32_t) {
        ++recount[static_cast<Asid>(key >> 48)];
    });
    vm.forEachForwardCount([&](Asid asid, std::size_t count) {
        if (bad)
            return;
        const auto it = recount.find(asid);
        const std::size_t want = it == recount.end() ? 0 : it->second;
        if (count != want) {
            std::ostringstream out;
            out << "asid " << asid << " forward count " << count
                << " != " << want << " entries";
            bad = out.str();
        }
        if (it != recount.end())
            recount.erase(it);
    });
    if (bad)
        return bad;
    if (!recount.empty()) {
        std::ostringstream out;
        out << "asid " << recount.begin()->first << " has "
            << recount.begin()->second << " forward entries but no count";
        return fail(out.str());
    }

    // Every resident page's owner must route (forward-aware) to the
    // shard actually holding it — stealing and adoption may move
    // pages off home, but never off the books.
    if (deep) {
        for (std::size_t s = 0; s < shards; ++s) {
            const MosaicVm &sv = vm.shard(s);
            for (Pfn pfn = 0; pfn < sv.numFrames(); ++pfn) {
                const Frame &f = sv.frameTable().frame(pfn);
                if (!f.used)
                    continue;
                const std::size_t routed =
                    vm.routeOf(f.owner.asid, f.owner.vpn);
                if (routed != s) {
                    std::ostringstream out;
                    out << "page (" << f.owner.asid << ", "
                        << f.owner.vpn << ") resident at shard " << s
                        << " but routes to shard " << routed;
                    return fail(out.str());
                }
            }
        }
    }

    return std::nullopt;
}

} // namespace mosaic
