/**
 * @file
 * Telemetry exporters for the experiment runners: map the structured
 * results of runFig6/runTable3/runTable4 onto stable hierarchical
 * metric names (DESIGN.md §9), so every bench that runs an experiment
 * registers the same names and the BENCH_*.json trajectory stays
 * comparable across PRs.
 *
 * Name scheme (all lowercase workload keys):
 *   fig6.<workload>.footprintBytes
 *   fig6.<workload>.accesses
 *   fig6.<workload>.ways<W>.vanilla.misses
 *   fig6.<workload>.ways<W>.mosaic<A>.misses
 *   table3.<workload>.footprint<B>.footprintBytes
 *   table3.<workload>.footprint<B>.firstConflictPct
 *       .{count,mean,stddev,min,max,sum}
 *   table3.<workload>.footprint<B>.steadyPct.{...}
 *   table4.<workload>.footprint<B>.footprintBytes
 *   table4.<workload>.footprint<B>.{linuxSwapIo,mosaicSwapIo}.{...}
 *   table4.<workload>.footprint<B>.differencePct
 *
 * (<B> is the footprint in bytes: tables 3 and 4 run each workload at
 * several footprints, so the footprint disambiguates the names.)
 */

#ifndef MOSAIC_CORE_EXPERIMENT_EXPORT_HH_
#define MOSAIC_CORE_EXPERIMENT_EXPORT_HH_

#include <string>

#include "core/experiments.hh"
#include "telemetry/registry.hh"
#include "util/status.hh"

namespace mosaic
{

/** Lowercase workload key used in metric names ("graph500", ...). */
std::string metricWorkloadKey(WorkloadKind kind);

/** Register one Figure 6 panel's results. */
void recordFig6(telemetry::Registry &r, const Fig6Result &result);

/** Register one Table 3 row's results. */
void recordTable3(telemetry::Registry &r, const Table3Row &row);

/** Register one Table 4 row's results. */
void recordTable4(telemetry::Registry &r, const Table4Row &row);

// --------------------------------------------------- checkpoint codecs
//
// Line-oriented text codecs for the sweep checkpoint/resume machinery
// (fault::SweepRunner, DESIGN.md §11). Doubles travel as hexfloats so
// a resumed cell's metrics merge byte-identically with freshly
// computed ones. decode* returns DataLoss naming the corrupt or
// missing field — numeric fields are parsed strictly, so a truncated
// or bit-flipped checkpoint row is discarded (the runner then
// recomputes the cell) instead of silently resuming a zeroed row; the
// output is unspecified on failure.

/**
 * A Figure 6 cell is a row list: a `ways` line naming the cell's ways
 * values, one `row <vanilla> <mosaic...>` line per value, then the
 * footprint, accesses and seconds lines. Decoding rejects an empty or
 * truncated row list, a row count that disagrees with the `ways`
 * line, and the older one-row-per-cell format.
 */
std::string encodeFig6Cell(const Fig6Cell &cell);
Status decodeFig6Cell(const std::string &text, Fig6Cell *out);

std::string encodeTable3Row(const Table3Row &row);
Status decodeTable3Row(const std::string &text, Table3Row *out);

std::string encodeTable4Row(const Table4Row &row);
Status decodeTable4Row(const std::string &text, Table4Row *out);

} // namespace mosaic

#endif // MOSAIC_CORE_EXPERIMENT_EXPORT_HH_
