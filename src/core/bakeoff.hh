/**
 * @file
 * The translation-design bake-off (DESIGN.md §14): run every
 * registered design — the four paper variants plus the
 * Virtuoso-patterned stride prefetcher, two-level page-walk cache,
 * and range TLB — head-to-head on the paper's workloads, one cell
 * per (workload × mosaic arity), and report measured reach, miss
 * rate, and modeled walk cost per design.
 *
 * Each cell is one TranslationSim whose designSpecs list covers all
 * seven kinds (the mosaic-backed ones pinned to the cell's arity),
 * so every design sees the identical reference stream. The kernel
 * stream is off: the bake-off compares translation designs on the
 * workload itself, not on the huge-page kernel artifact.
 */

#ifndef MOSAIC_CORE_BAKEOFF_HH_
#define MOSAIC_CORE_BAKEOFF_HH_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/experiments.hh"
#include "telemetry/registry.hh"
#include "util/thread_pool.hh"
#include "workloads/factory.hh"

namespace mosaic
{

/** Options for the bake-off sweep. */
struct BakeoffOptions
{
    /** Workload size multiplier (same scale as Figure 6). */
    double scale = 0.25;

    /** Base-array geometry every design starts from. */
    unsigned tlbEntries = 1024;
    unsigned ways = 8;

    /** Mosaic arities to pin the mosaic-backed designs to. */
    std::vector<unsigned> arities{4, 16, 64};

    /** Workloads to sweep: the four paper workloads plus the
     *  scenario-diversity engines (DESIGN.md §15). */
    std::vector<WorkloadKind> kinds{
        WorkloadKind::Graph500,   WorkloadKind::BTree,
        WorkloadKind::Gups,       WorkloadKind::XsBench,
        WorkloadKind::WarpGpu,    WorkloadKind::KvServer,
        WorkloadKind::WebSession, WorkloadKind::ScanAnalytics};

    std::uint64_t seed = 1;
};

/** One design's full metric dump in one cell. */
struct BakeoffDesignResult
{
    /** Registry kind ("vanilla" ... "range"); the metric-key segment. */
    std::string kind;

    /** Full design name (registry spec round trip; display only). */
    std::string name;

    /** One exported metric: a count, or a ratio (missRate). */
    using Value = std::variant<std::uint64_t, double>;

    /** Every metric forEachDesignMetric exposes, in visit order. */
    std::vector<std::pair<std::string, Value>> metrics;

    /** Value of count metric @p key, 0 when absent. */
    std::uint64_t metric(std::string_view key) const;

    /** misses / accesses (0 when no accesses). */
    double missRate() const;

    /** walkRefs / accesses — the modeled walk cost per reference. */
    double walkRefsPerAccess() const;
};

/** One (workload × arity) cell: all designs on one reference stream. */
struct BakeoffCell
{
    WorkloadKind kind{};
    unsigned arity = 0;
    std::uint64_t footprintBytes = 0;
    std::uint64_t accesses = 0;
    std::vector<BakeoffDesignResult> designs;

    /** Wall-clock seconds this cell took (timing only). */
    double seconds = 0.0;
};

/** The registry specs one cell drives, in translationDesignKinds()
 *  order: all seven kinds, mosaic-backed ones at @p arity. */
std::vector<std::string> bakeoffSpecs(const BakeoffOptions &options,
                                      unsigned arity);

/** Run one cell (shared reference stream semantics as Figure 6:
 *  the workload is derived from options.seed alone). */
BakeoffCell runBakeoffCell(WorkloadKind kind,
                           const BakeoffOptions &options,
                           std::size_t arity_index);

/** Run the whole grid on @p pool, cells in (kind, arity) order. */
std::vector<BakeoffCell> runBakeoff(const BakeoffOptions &options,
                                    ThreadPool &pool);

/** runBakeoff on ThreadPool::shared(). */
std::vector<BakeoffCell> runBakeoff(const BakeoffOptions &options);

/** Register one cell's metrics as
 *  "bakeoff.<workload>.arity<A>.<kind>.<metric>". */
void recordBakeoff(telemetry::Registry &r, const BakeoffCell &cell);

} // namespace mosaic

#endif // MOSAIC_CORE_BAKEOFF_HH_
