/**
 * @file
 * Workload `fig6`: the Figure-6 grid through the public runFig6 —
 * Graph500, BTree, GUPS and XSBench × {direct, 2, 4, 8, full} ways ×
 * vanilla + Mosaic-4..64, kernel stream on, ample memory, TLBs cold
 * at the start of every cell (as in the paper), one pool thread.
 * An event is one reference a cell translates.
 */

#include <memory>

#include "common.hh"
#include "core/experiments.hh"
#include "core/translation_sim.hh"
#include "util/thread_pool.hh"

using namespace mosaic;

namespace perfbench
{

namespace
{

/** Workload size multiplier: about 1.8 M references per cell. */
constexpr double fig6Scale = 0.03;

constexpr WorkloadKind fig6Kinds[] = {
    WorkloadKind::Graph500, WorkloadKind::BTree, WorkloadKind::Gups,
    WorkloadKind::XsBench};

/** The configuration runFig6Cell builds for one cell. */
TranslationSimConfig
cellConfig(const Fig6Options &options, std::uint64_t footprint_bytes,
           std::size_t ways_index)
{
    TranslationSimConfig config;
    config.memory = ampleGeometry(footprint_bytes);
    config.tlbEntries = options.tlbEntries;
    config.waysList = {options.waysList.at(ways_index)};
    config.arities = options.arities;
    if (!options.kernelHugePages)
        config.kernel.accessEvery = 0;
    config.seed = options.seed;
    return config;
}

void
foldPanel(Digest &digest, const Fig6Result &r)
{
    digest.mix(static_cast<std::uint64_t>(r.kind));
    digest.mix(r.footprintBytes);
    digest.mix(r.accesses);
    for (const Fig6Row &row : r.rows) {
        digest.mix(row.ways);
        digest.mix(row.vanillaMisses);
        for (const std::uint64_t m : row.mosaicMisses)
            digest.mix(m);
    }
}

class Fig6Workload final : public Workload
{
  public:
    explicit Fig6Workload(std::uint64_t seed)
    {
        options_.scale = fig6Scale;
        options_.seed = seed;
    }

    Round
    round(Trace *trace) override
    {
        std::vector<Fig6Result> panels;
        Round r;
        if (trace == nullptr) {
            // Set-up as one cell of each panel performs it; runFig6
            // repeats it inside every cell, within the measured phase.
            const auto setup_start = Clock::now();
            for (const WorkloadKind kind : fig6Kinds) {
                const auto w = makeFig6Workload(kind, options_.scale,
                                                options_.seed);
                const TranslationSim sim(
                    cellConfig(options_, w->info().footprintBytes,
                               options_.waysList.size() - 1));
                (void)sim;
            }
            r.setupSeconds = secondsSince(setup_start);

            for (const WorkloadKind kind : fig6Kinds) {
                const auto start = Clock::now();
                panels.push_back(runFig6(kind, options_, pool_));
                const double seconds = secondsSince(start);
                r.parts.push_back({panels.back().accesses *
                                       panels.back().rows.size(),
                                   seconds});
                r.wallSeconds += seconds;
            }
        } else {
            genSeconds_ = accessSeconds_ = 0.0;
            refs_ = mappedPages_ = 0;
            for (const WorkloadKind kind : fig6Kinds)
                panels.push_back(tracedPanel(kind, *trace, r));
            // Summed over the round: one cell's sampled access time can
            // exceed its run time by the sampling error.
            trace->span("core.access", accessSeconds_);
            trace->span("workloads.gen", genSeconds_);
            trace->set("workloads.gen.s", genSeconds_);
            trace->set("core.access.s", accessSeconds_);
            trace->set("core.access.ns_per_ref",
                       accessSeconds_ * 1e9 / static_cast<double>(refs_));
            trace->set("core.mapped_pages",
                       static_cast<double>(mappedPages_));
        }

        Digest digest;
        std::uint64_t vanilla_full = 0, mosaic4_full = 0;
        for (const Fig6Result &panel : panels) {
            foldPanel(digest, panel);
            r.attempted += panel.rows.size();
            for (const Fig6Row &row : panel.rows) {
                if (row.vanillaMisses == 0 ||
                        row.vanillaMisses > panel.accesses ||
                        row.mosaicMisses.empty() ||
                        row.mosaicMisses.front() > panel.accesses) {
                    r.errors.push_back(
                        "fig6: miss count out of range in " +
                        workloadName(panel.kind));
                    ++r.failed;
                }
                if (row.ways == options_.tlbEntries) {
                    vanilla_full += row.vanillaMisses;
                    mosaic4_full += row.mosaicMisses.front();
                }
            }
        }
        r.digest = digest.h;
        r.results["tlb_miss_reduction_pct"] =
            100.0 * (static_cast<double>(vanilla_full) -
                     static_cast<double>(mosaic4_full)) /
            static_cast<double>(vanilla_full);
        return r;
    }

    std::vector<PageTouch>
    stream(std::size_t cap) override
    {
        std::vector<PageTouch> out;
        const std::size_t per_panel = cap / std::size(fig6Kinds);
        for (std::size_t k = 0; k < std::size(fig6Kinds); ++k) {
            VectorSink sink;
            makeFig6Workload(fig6Kinds[k], options_.scale, options_.seed)
                ->run(sink);
            const auto &refs = sink.trace();
            for (std::size_t i = 0; i < refs.size() && i < per_panel; ++i) {
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
        return 4604443801364673542ull;
    }

  private:
    /** One panel cell by cell, as runFig6Cell runs it, with the
     *  engine's generation and TranslationSim::access timed apart. */
    Fig6Result
    tracedPanel(WorkloadKind kind, Trace &trace, Round &r)
    {
        Fig6Result panel;
        panel.kind = kind;
        panel.arities = options_.arities;
        for (std::size_t w = 0; w < options_.waysList.size(); ++w) {
            const auto setup_start = Clock::now();
            const auto workload =
                makeFig6Workload(kind, options_.scale, options_.seed);
            TranslationSim sim(cellConfig(
                options_, workload->info().footprintBytes, w));
            const double setup = secondsSince(setup_start);
            trace.span("setup", setup);
            r.setupSeconds += setup;
            r.wallSeconds += setup;

            TimingSink sink(sim, 7);
            const auto run_start = Clock::now();
            workload->run(sink);
            sink.flush();
            const double run = secondsSince(run_start);
            r.wallSeconds += run;
            accessSeconds_ += sink.insideSeconds();
            genSeconds_ += run - sink.insideSeconds();
            refs_ += sim.totalAccesses();
            if (w == 0)
                mappedPages_ += sim.mappedPages();

            Fig6Row row;
            row.ways = options_.waysList[w];
            row.vanillaMisses = sim.vanillaStats(0).misses;
            checkStats(sim.vanillaStats(0), r);
            for (std::size_t a = 0; a < options_.arities.size(); ++a) {
                row.mosaicMisses.push_back(sim.mosaicStats(0, a).misses);
                checkStats(sim.mosaicStats(0, a), r);
            }
            panel.rows.push_back(std::move(row));
            panel.footprintBytes = workload->info().footprintBytes;
            panel.accesses = sim.totalAccesses();
        }
        return panel;
    }

    static void
    checkStats(const TlbStats &s, Round &r)
    {
        if (s.hits + s.misses != s.accesses)
            r.errors.push_back("fig6: TLB hits + misses != lookups");
    }

    Fig6Options options_;
    ThreadPool pool_{1};

    // Accumulators of the current traced round.
    double genSeconds_ = 0.0;
    double accessSeconds_ = 0.0;
    std::uint64_t refs_ = 0;
    std::uint64_t mappedPages_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeFig6(std::uint64_t seed)
{
    return std::make_unique<Fig6Workload>(seed);
}

} // namespace perfbench
