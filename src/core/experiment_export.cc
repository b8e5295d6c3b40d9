#include "core/experiment_export.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/parse.hh"

namespace mosaic
{

std::string
metricWorkloadKey(WorkloadKind kind)
{
    std::string key = workloadName(kind);
    std::transform(key.begin(), key.end(), key.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return key;
}

void
recordFig6(telemetry::Registry &r, const Fig6Result &result)
{
    const std::string base = "fig6." + metricWorkloadKey(result.kind);
    r.counter(base + ".footprintBytes", result.footprintBytes);
    r.counter(base + ".accesses", result.accesses);
    for (const Fig6Row &row : result.rows) {
        const std::string ways =
            base + ".ways" + std::to_string(row.ways);
        r.counter(ways + ".vanilla.misses", row.vanillaMisses);
        for (std::size_t a = 0; a < result.arities.size(); ++a) {
            r.counter(ways + ".mosaic" +
                          std::to_string(result.arities[a]) + ".misses",
                      row.mosaicMisses.at(a));
        }
    }
}

void
recordTable3(telemetry::Registry &r, const Table3Row &row)
{
    // Several rows share a workload (one per footprint), so the
    // footprint is part of the name to keep names unique.
    const std::string base = "table3." + metricWorkloadKey(row.kind) +
                             ".footprint" +
                             std::to_string(row.footprintBytes);
    r.counter(base + ".footprintBytes", row.footprintBytes);
    r.stat(base + ".firstConflictPct", row.firstConflictPct);
    r.stat(base + ".steadyPct", row.steadyPct);
}

void
recordTable4(telemetry::Registry &r, const Table4Row &row)
{
    const std::string base = "table4." + metricWorkloadKey(row.kind) +
                             ".footprint" +
                             std::to_string(row.footprintBytes);
    r.counter(base + ".footprintBytes", row.footprintBytes);
    r.stat(base + ".linuxSwapIo", row.linuxSwapIo);
    r.stat(base + ".mosaicSwapIo", row.mosaicSwapIo);
    r.gauge(base + ".differencePct", row.differencePct());
}

namespace
{

/** Bit-exact double -> text (see RunningStat::encode). */
std::string
hexDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%la", v);
    return buf;
}

/** Parse a hexfloat token; false when the token isn't one number. */
bool
parseDouble(const std::string &token, double *out)
{
    const char *begin = token.c_str();
    char *end = nullptr;
    *out = std::strtod(begin, &end);
    return end != begin && *end == '\0';
}

/** Read one "key rest-of-line" line; DataLoss on EOF or mismatch. */
Status
keyedLine(std::istream &in, const char *key, std::string *rest)
{
    std::string line;
    if (!std::getline(in, line))
        return Status::dataLoss(std::string("checkpoint truncated "
                                            "before '") +
                                key + "' line");
    const std::string prefix = std::string(key) + " ";
    if (line.rfind(prefix, 0) != 0)
        return Status::dataLoss(std::string("checkpoint line is not '") +
                                key + " ...': '" + line + "'");
    *rest = line.substr(prefix.size());
    return Status();
}

/** keyedLine + strict decimal parse of the whole payload. */
Status
keyedU64(std::istream &in, const char *key, std::uint64_t *out)
{
    std::string rest;
    if (Status s = keyedLine(in, key, &rest); !s.ok())
        return s;
    if (!parseU64(rest, out))
        return Status::dataLoss(std::string("checkpoint field '") + key +
                                "' is not an unsigned integer: '" +
                                rest + "'");
    return Status();
}

/** keyedLine + strict hexfloat parse of the whole payload. */
Status
keyedDouble(std::istream &in, const char *key, double *out)
{
    std::string rest;
    if (Status s = keyedLine(in, key, &rest); !s.ok())
        return s;
    if (!parseDouble(rest, out))
        return Status::dataLoss(std::string("checkpoint field '") + key +
                                "' is not a hexfloat: '" + rest + "'");
    return Status();
}

/** keyedLine + RunningStat::decode with a field-naming error. */
Status
keyedStat(std::istream &in, const char *key, RunningStat *out)
{
    std::string rest;
    if (Status s = keyedLine(in, key, &rest); !s.ok())
        return s;
    if (!out->decode(rest))
        return Status::dataLoss(std::string("checkpoint field '") + key +
                                "' is not a RunningStat encoding: '" +
                                rest + "'");
    return Status();
}

/** Decode an encoded WorkloadKind, rejecting out-of-range values. */
Status
keyedKind(std::istream &in, WorkloadKind *out)
{
    std::uint64_t raw = 0;
    if (Status s = keyedU64(in, "kind", &raw); !s.ok())
        return s;
    if (raw > static_cast<std::uint64_t>(WorkloadKind::KvStore))
        return Status::dataLoss("checkpoint field 'kind' is not a "
                                "workload kind: " +
                                std::to_string(raw));
    *out = static_cast<WorkloadKind>(raw);
    return Status();
}

/** Parse a line of whitespace-separated decimal counts. */
Status
parseCounts(const std::string &text, const char *key,
            std::vector<std::uint64_t> *out)
{
    std::istringstream fields(text);
    std::string token;
    while (fields >> token) {
        std::uint64_t v = 0;
        if (!parseU64(token, &v))
            return Status::dataLoss(std::string("checkpoint field '") +
                                    key + "' has a non-integer count: '" +
                                    token + "'");
        out->push_back(v);
    }
    return Status();
}

} // namespace

std::string
encodeFig6Cell(const Fig6Cell &cell)
{
    std::ostringstream out;
    out << "ways ";
    for (std::size_t w = 0; w < cell.rows.size(); ++w)
        out << (w > 0 ? " " : "") << cell.rows[w].ways;
    out << '\n';
    for (const Fig6Row &row : cell.rows) {
        out << "row " << row.vanillaMisses;
        for (const std::uint64_t m : row.mosaicMisses)
            out << ' ' << m;
        out << '\n';
    }
    out << "footprint " << cell.footprintBytes << '\n';
    out << "accesses " << cell.accesses << '\n';
    out << "seconds " << hexDouble(cell.seconds) << '\n';
    return out.str();
}

Status
decodeFig6Cell(const std::string &text, Fig6Cell *out)
{
    std::istringstream in(text);
    std::string rest;
    Fig6Cell cell;

    std::vector<std::uint64_t> ways;
    if (Status s = keyedLine(in, "ways", &rest); !s.ok())
        return s;
    if (Status s = parseCounts(rest, "ways", &ways); !s.ok())
        return s;
    if (ways.empty())
        return Status::dataLoss("checkpoint field 'ways' lists no rows");
    for (const std::uint64_t w : ways) {
        if (w == 0 || w > 0xFFFFFFFFull)
            return Status::dataLoss("checkpoint field 'ways' is out of "
                                    "range: " +
                                    std::to_string(w));
    }

    // One "row <vanilla> <mosaic...>" line per ways value, then the
    // footprint line.
    std::string line;
    while (std::getline(in, line) && line.rfind("row ", 0) == 0) {
        std::vector<std::uint64_t> counts;
        if (Status s = parseCounts(line.substr(4), "row", &counts);
                !s.ok())
            return s;
        if (counts.size() < 2)
            return Status::dataLoss("checkpoint field 'row' lists no "
                                    "mosaic miss counts");
        if (!cell.rows.empty() &&
                counts.size() != cell.rows.front().mosaicMisses.size() + 1)
            return Status::dataLoss("checkpoint rows disagree on the "
                                    "arity count");
        if (cell.rows.size() == ways.size())
            return Status::dataLoss("checkpoint has more rows than its "
                                    "'ways' line lists");
        Fig6Row &row = cell.rows.emplace_back();
        row.ways = static_cast<unsigned>(ways[cell.rows.size() - 1]);
        row.vanillaMisses = counts.front();
        row.mosaicMisses.assign(counts.begin() + 1, counts.end());
    }
    if (cell.rows.empty() && line.rfind("vanilla ", 0) == 0)
        return Status::dataLoss("checkpoint is in the single-row "
                                "per-ways format");
    if (in.fail())
        return Status::dataLoss("checkpoint truncated in its row list");
    if (cell.rows.size() != ways.size())
        return Status::dataLoss(
            "checkpoint has " + std::to_string(cell.rows.size()) +
            " rows but its 'ways' line lists " +
            std::to_string(ways.size()));

    // The row loop consumed the footprint line.
    std::istringstream footprint(line);
    if (Status s = keyedU64(footprint, "footprint", &cell.footprintBytes);
            !s.ok())
        return s;
    if (Status s = keyedU64(in, "accesses", &cell.accesses); !s.ok())
        return s;
    if (Status s = keyedDouble(in, "seconds", &cell.seconds); !s.ok())
        return s;
    *out = std::move(cell);
    return Status();
}

std::string
encodeTable3Row(const Table3Row &row)
{
    std::ostringstream out;
    out << "kind " << static_cast<int>(row.kind) << '\n';
    out << "footprint " << row.footprintBytes << '\n';
    out << "firstConflictPct " << row.firstConflictPct.encode() << '\n';
    out << "steadyPct " << row.steadyPct.encode() << '\n';
    out << "seconds " << hexDouble(row.cellSeconds) << '\n';
    return out.str();
}

Status
decodeTable3Row(const std::string &text, Table3Row *out)
{
    std::istringstream in(text);
    Table3Row row;
    if (Status s = keyedKind(in, &row.kind); !s.ok())
        return s;
    if (Status s = keyedU64(in, "footprint", &row.footprintBytes);
            !s.ok())
        return s;
    if (Status s = keyedStat(in, "firstConflictPct",
                             &row.firstConflictPct);
            !s.ok())
        return s;
    if (Status s = keyedStat(in, "steadyPct", &row.steadyPct); !s.ok())
        return s;
    if (Status s = keyedDouble(in, "seconds", &row.cellSeconds);
            !s.ok())
        return s;
    *out = std::move(row);
    return Status();
}

std::string
encodeTable4Row(const Table4Row &row)
{
    std::ostringstream out;
    out << "kind " << static_cast<int>(row.kind) << '\n';
    out << "footprint " << row.footprintBytes << '\n';
    out << "linuxSwapIo " << row.linuxSwapIo.encode() << '\n';
    out << "mosaicSwapIo " << row.mosaicSwapIo.encode() << '\n';
    out << "seconds " << hexDouble(row.cellSeconds) << '\n';
    return out.str();
}

Status
decodeTable4Row(const std::string &text, Table4Row *out)
{
    std::istringstream in(text);
    Table4Row row;
    if (Status s = keyedKind(in, &row.kind); !s.ok())
        return s;
    if (Status s = keyedU64(in, "footprint", &row.footprintBytes);
            !s.ok())
        return s;
    if (Status s = keyedStat(in, "linuxSwapIo", &row.linuxSwapIo);
            !s.ok())
        return s;
    if (Status s = keyedStat(in, "mosaicSwapIo", &row.mosaicSwapIo);
            !s.ok())
        return s;
    if (Status s = keyedDouble(in, "seconds", &row.cellSeconds);
            !s.ok())
        return s;
    *out = std::move(row);
    return Status();
}

} // namespace mosaic
