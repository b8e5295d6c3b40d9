/**
 * @file
 * Layer replays of a traced run. A layer that sits inside another
 * module (the TLBs and page tables inside TranslationSim, for one)
 * cannot be timed from outside, so the workload's recorded page
 * stream is replayed through standalone instances of that layer's
 * public classes, each call timed. Layers the workload's own traced
 * round already measured are skipped.
 */

#include <filesystem>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common.hh"
#include "core/experiments.hh"
#include "core/translation_sim.hh"
#include "mem/frame_table.hh"
#include "mem/mosaic_allocator.hh"
#include "os/linux_vm.hh"
#include "os/mosaic_vm.hh"
#include "pt/mosaic_page_table.hh"
#include "pt/vanilla_page_table.hh"
#include "tlb/mosaic_tlb.hh"
#include "tlb/vanilla_tlb.hh"

using namespace mosaic;

namespace perfbench
{

namespace
{

constexpr unsigned replayEntries = 1024;
constexpr unsigned replayWays = 8;
constexpr unsigned replayArity = 4;

std::size_t
distinctPages(const std::vector<PageTouch> &stream)
{
    std::unordered_set<std::uint64_t> pages;
    for (const PageTouch &t : stream)
        pages.insert(packPageId(PageId{t.asid, t.vpn}));
    return pages.size();
}

/**
 * Demand mapping, page walks and TLB lookup/fill of the Figure-6
 * translation path: vanilla and Mosaic-4 TLBs of 1,024 entries at
 * 8 ways and at full associativity. A TranslationSim with the same
 * geometry then runs the same stream, and its miss counts must match.
 */
void
replayTranslation(const std::vector<PageTouch> &stream,
                  std::uint64_t seed, Trace &trace,
                  std::vector<std::string> &errors)
{
    const MemoryGeometry g =
        ampleGeometry(distinctPages(stream) * pageSize);
    MosaicAllocator allocator(g);
    FrameTable frames(g.numFrames);
    const Cpfn unmapped = allocator.mapper().codec().invalid();
    std::unordered_map<Asid, std::unique_ptr<VanillaPageTable>> vpts;
    std::unordered_map<Asid, std::unique_ptr<MosaicPageTable>> mpts;

    VanillaTlb vanilla({replayEntries, replayWays});
    VanillaTlb vanilla_full({replayEntries, replayEntries});
    MosaicTlb mosaic({replayEntries, replayWays}, replayArity);
    MosaicTlb mosaic_full({replayEntries, replayEntries}, replayArity);

    OpTimer lookup, fill, fill_full, walk, place;
    std::vector<std::uint64_t> fault_keys;
    Pfn next_pfn = 0;
    Tick clock = 0;
    bool conflict = false;

    for (const PageTouch &t : stream) {
        auto &vpt = vpts[t.asid];
        auto &mpt = mpts[t.asid];
        if (!vpt) {
            vpt = std::make_unique<VanillaPageTable>();
            mpt = std::make_unique<MosaicPageTable>(replayArity, unmapped);
        }
        if (!vpt->walk(t.vpn).present) {
            const std::uint64_t key = packPageId(PageId{t.asid, t.vpn});
            fault_keys.push_back(key);
            const CandidateSet cand = allocator.mapper().candidates(key);
            const auto a = Clock::now();
            const std::optional<Placement> p =
                allocator.place(cand, frames);
            if (p)
                frames.map(p->pfn, PageId{t.asid, t.vpn}, ++clock);
            place.add(spanNs(a, Clock::now()));
            if (!p) {
                conflict = true;
                break;
            }
            vpt->map(t.vpn, next_pfn++);
            mpt->setCpfn(t.vpn, p->cpfn);
        }

        for (VanillaTlb *tlb : {&vanilla, &vanilla_full}) {
            const auto a = Clock::now();
            const bool hit = tlb->lookup(t.asid, t.vpn).has_value();
            if (tlb == &vanilla)
                lookup.add(spanNs(a, Clock::now()));
            if (hit)
                continue;
            const auto b = Clock::now();
            const VanillaWalkResult w = vpt->walk(t.vpn);
            const auto c = Clock::now();
            tlb->fill(t.asid, t.vpn, w.pfn);
            walk.add(spanNs(b, c));
            (tlb == &vanilla ? fill : fill_full).add(spanNs(c, Clock::now()));
        }
        for (MosaicTlb *tlb : {&mosaic, &mosaic_full}) {
            const auto a = Clock::now();
            const bool hit = tlb->lookup(t.asid, t.vpn).has_value();
            if (tlb == &mosaic)
                lookup.add(spanNs(a, Clock::now()));
            if (hit)
                continue;
            const auto b = Clock::now();
            const MosaicWalkResult w = mpt->walk(t.vpn);
            const auto c = Clock::now();
            tlb->fill(t.asid, t.vpn, w.toc, unmapped);
            walk.add(spanNs(b, c));
            (tlb == &mosaic ? fill : fill_full).add(spanNs(c, Clock::now()));
        }
    }
    if (conflict) {
        errors.push_back("replay: associativity conflict in ample memory");
        return;
    }

    // Candidate hashing over the fault-path keys, timed as one loop:
    // a single call is too short for its own span.
    std::uint64_t sink = 0;
    const auto hash_start = Clock::now();
    for (const std::uint64_t key : fault_keys)
        sink += allocator.mapper().candidates(key).frontBucket;
    const double hash_ns = nsBetween(hash_start, Clock::now());
    const volatile std::uint64_t keep = sink; // the loop's result is used
    (void)keep;

    for (const TlbStats *s :
             {&vanilla.stats(), &vanilla_full.stats(), &mosaic.stats(),
              &mosaic_full.stats()}) {
        if (s->hits + s->misses != s->accesses)
            errors.push_back("replay: TLB hits + misses != lookups");
    }

    // The same stream through TranslationSim (kernel stream off): the
    // standalone TLBs must have missed exactly as its grid did.
    TranslationSimConfig config;
    config.memory = g;
    config.tlbEntries = replayEntries;
    config.waysList = {replayWays, replayEntries};
    config.arities = {replayArity};
    config.kernel.accessEvery = 0;
    config.seed = seed;
    TranslationSim sim(config);
    const auto sim_start = Clock::now();
    for (const PageTouch &t : stream) {
        sim.setActiveAsid(t.asid);
        sim.access(t.vpn << pageShift, t.write);
    }
    const double sim_seconds = secondsSince(sim_start);
    if (sim.vanillaStats(0).misses != vanilla.stats().misses ||
            sim.vanillaStats(1).misses != vanilla_full.stats().misses ||
            sim.mosaicStats(0, 0).misses != mosaic.stats().misses ||
            sim.mosaicStats(1, 0).misses != mosaic_full.stats().misses) {
        errors.push_back("replay: TLB misses differ from TranslationSim's "
                         "on the same stream");
    }

    const auto n = static_cast<double>(stream.size());
    trace.setIfAbsent("core.access.s", sim_seconds);
    trace.setIfAbsent("core.access.ns_per_ref", sim_seconds * 1e9 / n);
    trace.setIfAbsent("core.mapped_pages",
                      static_cast<double>(sim.mappedPages()));
    trace.set("tlb.lookup.ns_per_op", lookup.perOp());
    trace.set("tlb.fill.ns_per_op", fill.perOp());
    trace.set("tlb.fill_full.ns_per_op", fill_full.perOp());
    trace.set("tlb.vanilla.misses",
              static_cast<double>(vanilla_full.stats().misses));
    trace.set("tlb.mosaic.misses",
              static_cast<double>(mosaic_full.stats().misses));
    trace.set("tlb.hit_ratio",
              static_cast<double>(mosaic_full.stats().hits) /
                  static_cast<double>(mosaic_full.stats().accesses));
    trace.set("pt.walk.ns_per_op", walk.perOp());
    trace.set("pt.walk.ops", static_cast<double>(walk.ops));
    trace.set("mem.place.ns_per_op", place.perOp());
    trace.set("hash.candidates.ns_per_op",
              fault_keys.empty()
                  ? 0.0
                  : hash_ns / static_cast<double>(fault_keys.size()));
}

/** A pool 1.15× smaller than the stream's distinct pages, so the
 *  replays evict; whole buckets of @p align frames, at least
 *  @p floor. */
std::size_t
overcommittedFrames(const std::vector<PageTouch> &stream,
                    std::size_t align, std::size_t floor)
{
    const std::size_t frames = distinctPages(stream) * 20 / 23;
    return std::max(floor, frames / align * align);
}

void
replayVms(const std::vector<PageTouch> &stream, std::uint64_t seed,
          Trace &trace)
{
    MemoryGeometry g;
    g.numFrames = overcommittedFrames(stream, g.slotsPerBucket(),
                                      16 * g.slotsPerBucket());
    g.hashSeed = seed ^ 0xA110C;

    LinuxVmConfig linux_config;
    linux_config.numFrames = g.numFrames;
    LinuxVm linux_vm(linux_config);
    TimedVmSink linux_sink(linux_vm, 0);
    for (const PageTouch &t : stream)
        linux_sink.touch(t.asid, t.vpn, t.write);
    publishVm(trace, "linux", linux_sink.buckets, linux_vm.stats(), false);

    MosaicVmConfig mosaic_config;
    mosaic_config.geometry = g;
    mosaic_config.seed = seed;
    MosaicVm mosaic_vm(mosaic_config);
    TimedVmSink mosaic_sink(mosaic_vm, 0);
    for (const PageTouch &t : stream)
        mosaic_sink.touch(t.asid, t.vpn, t.write);
    publishVm(trace, "mosaic", mosaic_sink.buckets, mosaic_vm.stats(),
              false);
}

void
replayShards(const std::vector<PageTouch> &stream, std::uint64_t seed,
             Trace &trace)
{
    constexpr std::size_t shards = 4;
    ShardedVmConfig config;
    MemoryGeometry &g = config.base.geometry;
    const std::size_t align = shards * g.slotsPerBucket();
    g.numFrames = overcommittedFrames(
        stream, align, shards * (g.backChoices + 1) * g.slotsPerBucket());
    g.hashSeed = seed ^ 0xA110C;
    config.base.seed = seed;
    config.shards = shards;
    ShardedMosaicVm vm(config);
    Digest unused;
    publishShard(trace, touchBlocks(vm, stream, unused), false);
}

void
replayServe(const std::vector<PageTouch> &stream, std::uint64_t seed,
            const std::string &state_dir, Trace &trace,
            std::vector<std::string> &errors)
{
    constexpr std::size_t requests_cap = 20000;
    constexpr unsigned sessions = 4;
    std::vector<ServeRequest> requests;
    for (std::size_t i = 0; i < stream.size() && i < requests_cap; ++i) {
        requests.push_back({static_cast<unsigned>(i % sessions),
                            stream[i].vpn << pageShift, stream[i].write});
    }
    double setup = 0.0;
    const ServePass pass =
        runServe(requests, sessions, seed, state_dir, &setup);
    errors.insert(errors.end(), pass.errors.begin(), pass.errors.end());
    if (pass.failed > 0)
        errors.push_back("replay: serve requests not accepted");
    publishServe(trace, pass, false);
}

} // namespace

void
replayLayers(const std::vector<PageTouch> &stream, std::uint64_t seed,
             const std::string &state_dir, Trace &trace,
             std::vector<std::string> &errors)
{
    replayTranslation(stream, seed, trace, errors);
    if (!trace.has("os.mosaic.touch_hit.ns"))
        replayVms(stream, seed, trace);
    if (!trace.has("os.shard.block_ms.p50"))
        replayShards(stream, seed, trace);
    if (!trace.has("serve.submit.ns.p50"))
        replayServe(stream, seed, state_dir, trace, errors);
}

} // namespace perfbench
