#include "telemetry/registry.hh"

#include "telemetry/json_writer.hh"
#include "util/log.hh"

namespace mosaic::telemetry
{

void
Registry::insert(const std::string &name, MetricValue v)
{
    ensure(!name.empty(), "telemetry: empty metric name");
    const auto [it, inserted] = metrics_.emplace(name, std::move(v));
    if (!inserted) {
        // Two sites writing one name is a naming bug; fail loudly so
        // it cannot silently shadow a real measurement.
        fatal("telemetry: duplicate metric name: " + name);
    }
}

void
Registry::counter(const std::string &name, std::uint64_t v)
{
    insert(name, v);
}

void
Registry::gauge(const std::string &name, double v)
{
    insert(name, v);
}

void
Registry::text(const std::string &name, std::string v)
{
    insert(name, std::move(v));
}

void
Registry::stat(const std::string &name, const RunningStat &s)
{
    counter(name + ".count", s.count());
    gauge(name + ".mean", s.mean());
    gauge(name + ".stddev", s.stddev());
    gauge(name + ".min", s.min());
    gauge(name + ".max", s.max());
    gauge(name + ".sum", s.sum());
}

void
Registry::writeTo(JsonWriter &w) const
{
    w.beginObject();
    writeMembers(w);
    w.endObject();
}

void
Registry::writeMembers(JsonWriter &w) const
{
    for (const auto &[name, value] : metrics_) {
        w.key(name);
        std::visit([&](const auto &v) { w.value(v); }, value);
    }
}

} // namespace mosaic::telemetry
