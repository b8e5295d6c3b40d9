/**
 * @file
 * Runners for the paper's evaluation experiments. Each function
 * executes one experiment configuration and returns structured
 * results; the bench binaries format them as the paper's tables and
 * figures.
 *
 * Experiment index (see DESIGN.md):
 *  - runFig6:   TLB misses, vanilla vs Mosaic-{arity} across TLB
 *               associativities (Figure 6 a–d).
 *  - runTable3: utilization at first associativity conflict and in
 *               steady state under the mosaic allocator (Table 3).
 *  - runTable4: swap I/O, Linux baseline vs Mosaic/Horizon LRU,
 *               across over-commit factors (Table 4).
 *
 * Parallelism and determinism (see DESIGN.md §8): every sweep is
 * decomposed into independent *cells* — a contiguous group of ways
 * rows for Figure 6, one repetition for Tables 3/4 — each of which
 * builds its own
 * TLB/page-table/allocator stack and owns its RNG streams outright.
 * A cell's streams are a pure function of (options.seed, cell
 * identity) via experimentCellSeed(), never a shared generator, so
 * results are bit-identical at any thread count. Cells run on a
 * ThreadPool; pass one explicitly to pin the worker count (tests),
 * or use the overloads without one for ThreadPool::shared().
 */

#ifndef MOSAIC_CORE_EXPERIMENTS_HH_
#define MOSAIC_CORE_EXPERIMENTS_HH_

#include <cstdint>
#include <vector>

#include "hash/mix.hh"
#include "mem/geometry.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"
#include "workloads/factory.hh"

namespace mosaic
{

/** Mosaic memory comfortably larger than @p footprint_bytes, so the
 *  no-swapping experiments (Figure 6, the bake-off) never see
 *  associativity conflicts during demand mapping. */
MemoryGeometry ampleGeometry(std::uint64_t footprint_bytes);

/**
 * The RNG seed of experiment cell @p cell of an experiment seeded
 * with @p seed: both words pass through the mix64 finalizer, so
 * consecutive cell indices yield statistically independent streams
 * (unlike the additive seed+k*1000 scheme this replaces, whose
 * xoshiro states differed in two bits).
 */
constexpr std::uint64_t
experimentCellSeed(std::uint64_t seed, std::uint64_t cell)
{
    return mix64(seed ^ mix64(cell + 0x9E3779B97F4A7C15ull));
}

// ---------------------------------------------------------------- Fig 6

/** Options for the Figure 6 sweep. */
struct Fig6Options
{
    /** Workload size multiplier (1.0 = default sizes). */
    double scale = 1.0;

    std::vector<unsigned> waysList{1, 2, 4, 8, 1024};
    std::vector<unsigned> arities{4, 8, 16, 32, 64};
    unsigned tlbEntries = 1024;

    /** Model the kernel's huge-page mappings (paper's vanilla
     *  advantage artifact); false = "huge pages fully disabled". */
    bool kernelHugePages = true;

    std::uint64_t seed = 1;
};

/** One associativity row of a Figure 6 panel. */
struct Fig6Row
{
    unsigned ways = 0;
    std::uint64_t vanillaMisses = 0;
    std::vector<std::uint64_t> mosaicMisses; // parallel to arities
};

/** One Figure 6 panel (one workload). */
struct Fig6Result
{
    WorkloadKind kind{};
    std::uint64_t footprintBytes = 0;
    std::uint64_t accesses = 0;
    std::vector<unsigned> arities;
    std::vector<Fig6Row> rows;

    /** Sum of per-cell wall-clock seconds, one cell per group of
     *  ways rows sharing a pass (the serial-equivalent cost, which
     *  therefore shrinks as the pool does). Timing only — not
     *  deterministic, never compared. */
    double cellSeconds = 0.0;
};

/**
 * One cell of the Figure 6 sweep: ways rows
 * options.waysList[first, first + count) simulated together, every
 * reference generated, demand-mapped and walked once and fed to all
 * of the group's TLBs (the paper's "in one pass").
 *
 * Figure 6 cells deliberately share one reference stream: the figure
 * compares TLB geometries *on the same trace*, so the workload and
 * kernel streams are derived from options.seed alone (not the cell)
 * and each cell re-derives identical private copies. A TLB row's
 * counts depend only on that stream, so a row is the same whichever
 * group computes it.
 */
struct Fig6Cell
{
    std::vector<Fig6Row> rows;
    std::uint64_t footprintBytes = 0;
    std::uint64_t accesses = 0;

    /** Wall-clock seconds this cell took (timing only). */
    double seconds = 0.0;
};

Fig6Cell runFig6Rows(WorkloadKind kind, const Fig6Options &options,
                     std::size_t first, std::size_t count);

/** Run one panel on @p pool as min(threads, ways) cells of contiguous
 *  ways rows and assemble the result in waysList order. */
Fig6Result runFig6(WorkloadKind kind, const Fig6Options &options,
                   ThreadPool &pool);

/** runFig6 on ThreadPool::shared(). */
Fig6Result runFig6(WorkloadKind kind, const Fig6Options &options);

// -------------------------------------------------------------- Table 3

/** Options for the utilization experiment. */
struct Table3Options
{
    /** Physical frames of the mosaic pool. */
    std::size_t memFrames = 16 * 1024;

    /** Workload footprint as a multiple of memory (> 1). */
    double footprintFactor = 1.015;

    /** Repetitions (paper: 10). */
    unsigned runs = 3;

    std::uint64_t seed = 1;
};

/** One Table 3 row. */
struct Table3Row
{
    WorkloadKind kind{};
    std::uint64_t footprintBytes = 0;

    /** Utilization (%) at the first associativity conflict. */
    RunningStat firstConflictPct;

    /** Steady-state utilization (%). */
    RunningStat steadyPct;

    /** Sum of per-run wall-clock seconds (timing only). */
    double cellSeconds = 0.0;
};

/** Cells are the repetitions; run r is seeded with
 *  experimentCellSeed(options.seed, r). Samples fold into the
 *  RunningStats in run order regardless of completion order. */
Table3Row runTable3(WorkloadKind kind, const Table3Options &options,
                    ThreadPool &pool);

/** runTable3 on ThreadPool::shared(). */
Table3Row runTable3(WorkloadKind kind, const Table3Options &options);

// -------------------------------------------------------------- Table 4

/** Options for the swapping experiment. */
struct Table4Options
{
    std::size_t memFrames = 16 * 1024;
    double footprintFactor = 1.015;
    unsigned runs = 1;
    std::uint64_t seed = 1;
};

/** One Table 4 row. */
struct Table4Row
{
    WorkloadKind kind{};
    std::uint64_t footprintBytes = 0;

    /** Swap I/O (pages in + out), averaged over runs. */
    RunningStat linuxSwapIo;
    RunningStat mosaicSwapIo;

    /** Sum of per-run wall-clock seconds (timing only). */
    double cellSeconds = 0.0;

    /** Percent reduction by Mosaic (positive = Mosaic swaps less). */
    double differencePct() const;
};

/** Cells are the repetitions (both VMs of a run form one cell);
 *  seeding and fold order as in runTable3. */
Table4Row runTable4(WorkloadKind kind, const Table4Options &options,
                    ThreadPool &pool);

/** runTable4 on ThreadPool::shared(). */
Table4Row runTable4(WorkloadKind kind, const Table4Options &options);

} // namespace mosaic

#endif // MOSAIC_CORE_EXPERIMENTS_HH_
