/**
 * @file
 * The telemetry metric registry: a flat, sorted namespace of
 * counters, gauges, and expanded RunningStat summaries with stable
 * hierarchical dot-separated names (see DESIGN.md §9 for the naming
 * scheme).
 *
 * Stat structs register themselves through their `forEachMetric`
 * member (TlbStats, VmStats, SwapDevice, ...) via addStats(), so
 * print sites never hand-copy counters. The registry stores metrics
 * in a sorted map and the JSON writer formats values
 * deterministically, so two runs that produce the same metric values
 * serialize to identical bytes — the basis of the serial-vs-parallel
 * golden telemetry tests.
 */

#ifndef MOSAIC_TELEMETRY_REGISTRY_HH_
#define MOSAIC_TELEMETRY_REGISTRY_HH_

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <variant>

#include "util/stats.hh"

namespace mosaic::telemetry
{

class JsonWriter;

/** A single recorded metric value. */
using MetricValue = std::variant<std::uint64_t, double, std::string>;

/** Flat registry of named metrics. */
class Registry
{
  public:
    /** Record a monotonic count (integral value). */
    void counter(const std::string &name, std::uint64_t v);

    /** Record a point-in-time measurement (floating value). */
    void gauge(const std::string &name, double v);

    /** Record a free-form text annotation. */
    void text(const std::string &name, std::string v);

    /**
     * Expand a RunningStat summary into <name>.count/.mean/.stddev/
     * .min/.max/.sum sub-metrics.
     */
    void stat(const std::string &name, const RunningStat &s);

    /** Type-dispatched record; the glue behind addStats(). */
    void add(const std::string &name, const RunningStat &v)
    {
        stat(name, v);
    }
    void add(const std::string &name, double v) { gauge(name, v); }
    void add(const std::string &name, std::uint64_t v)
    {
        counter(name, v);
    }
    template <typename T>
        requires std::is_integral_v<T>
    void
    add(const std::string &name, T v)
    {
        counter(name, static_cast<std::uint64_t>(v));
    }

    /**
     * Register every metric of a stats struct under
     * "<prefix>.<field>". Any type exposing
     * `forEachMetric(fn(name, value))` works; the stats headers stay
     * free of telemetry dependencies.
     */
    template <typename Stats>
    void
    addStats(const std::string &prefix, const Stats &s)
    {
        s.forEachMetric([&](const char *leaf, const auto &v) {
            add(prefix + "." + leaf, v);
        });
    }

    bool empty() const { return metrics_.empty(); }
    std::size_t size() const { return metrics_.size(); }

    /** Look up a metric; throws std::out_of_range when absent. */
    const MetricValue &at(const std::string &name) const
    {
        return metrics_.at(name);
    }

    bool contains(const std::string &name) const
    {
        return metrics_.contains(name);
    }

    /** Visit all metrics in sorted name order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &[name, value] : metrics_)
            fn(name, value);
    }

    /** Write all metrics as one JSON object, sorted by name. */
    void writeTo(JsonWriter &w) const;

    /** Write all metrics as members of the object @p w is in. */
    void writeMembers(JsonWriter &w) const;

  private:
    void insert(const std::string &name, MetricValue v);

    /** Sorted so output order is independent of insertion order. */
    std::map<std::string, MetricValue> metrics_;
};

} // namespace mosaic::telemetry

#endif // MOSAIC_TELEMETRY_REGISTRY_HH_
