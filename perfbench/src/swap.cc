/**
 * @file
 * Workload `swap`: Table-4 cells through the public runTable4 —
 * Graph500, XSBench and BTree at one over-committed footprint, each
 * through LinuxVm and MosaicVm with scalar touch, one pool thread.
 * An event is one page touch (each reference touches both VMs).
 */

#include <memory>

#include "common.hh"
#include "core/experiments.hh"
#include "os/linux_vm.hh"
#include "os/mosaic_vm.hh"
#include "util/thread_pool.hh"

using namespace mosaic;

namespace perfbench
{

namespace
{

/** Memory of each cell: 2,048 frames (8 MiB). */
constexpr std::size_t swapFrames = 2048;

/** Footprint as a multiple of memory: step 3 of the paper's ladder
 *  (1.0151 + 3 × 0.0625), past the smallest-footprint corner where
 *  Mosaic is known to lose. */
constexpr double swapFootprintFactor = 1.2026;

constexpr WorkloadKind swapKinds[] = {
    WorkloadKind::Graph500, WorkloadKind::XsBench, WorkloadKind::BTree};

class SwapWorkload final : public Workload
{
  public:
    explicit SwapWorkload(std::uint64_t seed)
    {
        options_.memFrames = swapFrames;
        options_.footprintFactor = swapFootprintFactor;
        options_.runs = 1;
        options_.seed = seed;
    }

    Round
    round(Trace *trace) override
    {
        Round r;
        std::vector<std::uint64_t> linux_io, mosaic_io, footprints;
        if (trace == nullptr) {
            const auto setup_start = Clock::now();
            for (const WorkloadKind kind : swapKinds) {
                const auto w = makeWorkload(kind);
                LinuxVm linux_vm(linuxConfig());
                MosaicVm mosaic_vm(mosaicConfig());
            }
            r.setupSeconds = secondsSince(setup_start);

            std::vector<Table4Row> rows;
            for (const WorkloadKind kind : swapKinds) {
                const auto start = Clock::now();
                rows.push_back(runTable4(kind, options_, pool_));
                const double seconds = secondsSince(start);
                r.parts.push_back({2 * references(kind), seconds});
                r.wallSeconds += seconds;
            }
            for (const Table4Row &row : rows) {
                footprints.push_back(row.footprintBytes);
                linux_io.push_back(
                    static_cast<std::uint64_t>(row.linuxSwapIo.mean()));
                mosaic_io.push_back(
                    static_cast<std::uint64_t>(row.mosaicSwapIo.mean()));
            }
        } else {
            TouchBuckets linux_buckets, mosaic_buckets;
            VmStats linux_sum, mosaic_sum;
            double gen = 0.0, inside = 0.0;
            for (const WorkloadKind kind : swapKinds) {
                const auto setup_start = Clock::now();
                const auto w = makeWorkload(kind);
                LinuxVm linux_vm(linuxConfig());
                MosaicVm mosaic_vm(mosaicConfig());
                const double setup = secondsSince(setup_start);
                trace->span("setup", setup);
                r.setupSeconds += setup;
                r.wallSeconds += setup;
                footprints.push_back(w->info().footprintBytes);

                for (VirtualMemory *vm :
                         {static_cast<VirtualMemory *>(&linux_vm),
                          static_cast<VirtualMemory *>(&mosaic_vm)}) {
                    TimedVmSink sink(*vm, 1, 7);
                    const auto run_start = Clock::now();
                    w->run(sink);
                    const double run = secondsSince(run_start);
                    r.wallSeconds += run;
                    inside += sink.insideSeconds();
                    gen += run - sink.insideSeconds();
                    TouchBuckets &into = vm == &linux_vm ? linux_buckets
                                                         : mosaic_buckets;
                    merge(into, sink.buckets);
                    checkStats(vm->stats(), r);
                }
                linux_io.push_back(linux_vm.stats().swapIo());
                mosaic_io.push_back(mosaic_vm.stats().swapIo());
                accumulate(linux_sum, linux_vm.stats());
                accumulate(mosaic_sum, mosaic_vm.stats());
            }
            trace->span("os.touch", inside);
            trace->span("workloads.gen", gen);
            trace->set("workloads.gen.s", gen);
            trace->set("core.access.s", inside);
            publishVm(*trace, "linux", linux_buckets, linux_sum, true);
            publishVm(*trace, "mosaic", mosaic_buckets, mosaic_sum, true);
        }

        Digest digest;
        std::uint64_t linux_total = 0, mosaic_total = 0;
        for (std::size_t k = 0; k < std::size(swapKinds); ++k) {
            digest.mix(static_cast<std::uint64_t>(swapKinds[k]));
            digest.mix(footprints[k]);
            digest.mix(linux_io[k]);
            digest.mix(mosaic_io[k]);
            linux_total += linux_io[k];
            mosaic_total += mosaic_io[k];
            ++r.attempted;
            // Over-committed memory must swap on both sides.
            if (linux_io[k] == 0 || mosaic_io[k] == 0) {
                r.errors.push_back("swap: no swap I/O in an "
                                   "over-committed cell");
                ++r.failed;
            }
        }
        r.digest = digest.h;
        r.results["swap_io_reduction_pct"] =
            100.0 * (static_cast<double>(linux_total) -
                     static_cast<double>(mosaic_total)) /
            static_cast<double>(linux_total);
        return r;
    }

    std::vector<PageTouch>
    stream(std::size_t cap) override
    {
        std::vector<PageTouch> out;
        const std::size_t per_kind = cap / std::size(swapKinds);
        for (std::size_t k = 0; k < std::size(swapKinds); ++k) {
            VectorSink sink;
            makeWorkload(swapKinds[k])->run(sink);
            const auto &refs = sink.trace();
            for (std::size_t i = 0; i < refs.size() && i < per_kind; ++i) {
                out.push_back(PageTouch{static_cast<Asid>(k + 1),
                                        vpnOf(refs[i].vaddr),
                                        refs[i].write});
            }
        }
        return out;
    }

    std::uint64_t
    pinnedDigest() const override
    {
        return 9223670950815657273ull;
    }

  private:
    /** What runTable4's cell 0 derives from the options. */
    std::uint64_t
    cellSeed() const
    {
        return experimentCellSeed(options_.seed, 0);
    }

    std::unique_ptr<mosaic::Workload>
    makeWorkload(WorkloadKind kind) const
    {
        const std::uint64_t mem_bytes =
            std::uint64_t{options_.memFrames} * pageSize;
        const auto footprint = static_cast<std::uint64_t>(
            static_cast<double>(mem_bytes) * options_.footprintFactor);
        return makeFootprintWorkload(kind, footprint, cellSeed());
    }

    LinuxVmConfig
    linuxConfig() const
    {
        LinuxVmConfig c;
        c.numFrames = options_.memFrames;
        return c;
    }

    MosaicVmConfig
    mosaicConfig() const
    {
        MosaicVmConfig c;
        c.geometry.numFrames = options_.memFrames;
        c.geometry.hashSeed = cellSeed() ^ 0xA110C;
        c.seed = cellSeed();
        return c;
    }

    /** References of one cell's workload, counted once per process
     *  outside every timed phase. */
    std::uint64_t
    references(WorkloadKind kind)
    {
        auto &count = refs_[static_cast<std::size_t>(kind)];
        if (count == 0) {
            CountingSink sink;
            makeWorkload(kind)->run(sink);
            count = sink.accesses();
        }
        return count;
    }

    static void
    merge(TouchBuckets &into, const TouchBuckets &from)
    {
        into.hit.ns += from.hit.ns;
        into.hit.ops += from.hit.ops;
        into.fault.ns += from.fault.ns;
        into.fault.ops += from.fault.ops;
        into.evict.ns += from.evict.ns;
        into.evict.ops += from.evict.ops;
    }

    static void
    accumulate(VmStats &into, const VmStats &from)
    {
        into.majorFaults += from.majorFaults;
        into.swapOuts += from.swapOuts;
        into.ghostRescues += from.ghostRescues;
        into.conflicts += from.conflicts;
    }

    static void
    checkStats(const VmStats &s, Round &r)
    {
        // Every major fault reads its page back from swap.
        if (s.majorFaults != s.swapIns)
            r.errors.push_back("swap: major faults != swap-ins");
    }

    Table4Options options_;
    ThreadPool pool_{1};
    std::map<std::size_t, std::uint64_t> refs_;
};

} // namespace

std::unique_ptr<Workload>
makeSwap(std::uint64_t seed)
{
    return std::make_unique<SwapWorkload>(seed);
}

} // namespace perfbench
