#include "common/report.hh"

#include <cmath>
#include <cstdio>

#include "common/file.hh"

namespace hetsim::obs
{

namespace
{

/** Append `"key":` to `out`. */
void
key(std::string &out, const char *name)
{
    out += '"';
    out += name;
    out += "\":";
}

void
appendU64(std::string &out, uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
}

void
appendHex64(std::string &out, uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\"0x%016llx\"",
                  static_cast<unsigned long long>(v));
    out += buf;
}

void
appendDistribution(std::string &out, const DistributionSnapshot &d)
{
    out += "{";
    key(out, "count");
    appendU64(out, d.count);
    out += ",";
    key(out, "min");
    out += jsonDouble(d.min);
    out += ",";
    key(out, "max");
    out += jsonDouble(d.max);
    out += ",";
    key(out, "mean");
    out += jsonDouble(d.mean);
    out += ",";
    key(out, "stddev");
    out += jsonDouble(d.stddev);
    out += "}";
}

void
appendGroup(std::string &out, const GroupSnapshot &g)
{
    out += "{";
    key(out, "name");
    out += '"';
    out += jsonEscape(g.name);
    out += "\",";
    key(out, "counters");
    out += "{";
    bool first = true;
    for (const auto &[name, value] : g.counters) {
        if (!first)
            out += ",";
        first = false;
        out += '"';
        out += jsonEscape(name);
        out += "\":";
        appendU64(out, value);
    }
    out += "},";
    key(out, "distributions");
    out += "{";
    first = true;
    for (const DistributionSnapshot &d : g.distributions) {
        if (!first)
            out += ",";
        first = false;
        out += '"';
        out += jsonEscape(d.name);
        out += "\":";
        appendDistribution(out, d);
    }
    out += "}}";
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

GroupSnapshot
snapshotGroup(const StatGroup &group)
{
    GroupSnapshot out;
    out.name = group.name();
    out.counters = group.snapshot();
    out.distributions.reserve(group.distributions().size());
    for (const auto &[name, dist] : group.distributions()) {
        DistributionSnapshot d;
        d.name = name;
        d.count = dist.count();
        d.min = dist.min();
        d.max = dist.max();
        d.mean = dist.mean();
        d.stddev = dist.stddev();
        out.distributions.push_back(std::move(d));
    }
    return out;
}

std::string
RunReport::toJson() const
{
    std::string out;
    out.reserve(4096);
    out += "{";
    key(out, "schema");
    out += '"';
    out += kSchema;
    out += "\",";
    key(out, "kind");
    out += '"';
    out += jsonEscape(kind);
    out += "\",";
    key(out, "config");
    out += '"';
    out += jsonEscape(config);
    out += "\",";
    key(out, "workload");
    out += '"';
    out += jsonEscape(workload);
    out += "\",";
    key(out, "design_hash");
    appendHex64(out, designHash);
    out += ",";
    key(out, "seed");
    appendU64(out, seed);
    out += ",";
    key(out, "scale");
    out += jsonDouble(scale);
    out += ",";
    key(out, "freq_ghz");
    out += jsonDouble(freqGhz);
    out += ",";
    key(out, "cycles");
    appendU64(out, cycles);
    out += ",";
    key(out, "ops");
    appendU64(out, ops);
    out += ",";
    key(out, "timed_out");
    out += timedOut ? "true" : "false";
    out += ",";
    key(out, "seconds");
    out += jsonDouble(seconds);
    out += ",";
    key(out, "energy_j");
    out += jsonDouble(energyJ);
    out += ",";

    key(out, "units");
    out += "[";
    bool first = true;
    for (const UnitEnergy &u : units) {
        if (!first)
            out += ",";
        first = false;
        out += "{";
        key(out, "name");
        out += '"';
        out += jsonEscape(u.name);
        out += "\",";
        key(out, "activity");
        appendU64(out, u.activity);
        out += ",";
        key(out, "dynamic_j");
        out += jsonDouble(u.dynamicJ);
        out += ",";
        key(out, "leakage_j");
        out += jsonDouble(u.leakageJ);
        out += "}";
    }
    out += "],";

    key(out, "energy_groups");
    out += "[";
    first = true;
    for (const EnergyGroupTotal &g : energyGroups) {
        if (!first)
            out += ",";
        first = false;
        out += "{";
        key(out, "name");
        out += '"';
        out += jsonEscape(g.name);
        out += "\",";
        key(out, "dynamic_j");
        out += jsonDouble(g.dynamicJ);
        out += ",";
        key(out, "leakage_j");
        out += jsonDouble(g.leakageJ);
        out += "}";
    }
    out += "],";

    key(out, "stat_groups");
    out += "[";
    first = true;
    for (const GroupSnapshot &g : groups) {
        if (!first)
            out += ",";
        first = false;
        appendGroup(out, g);
    }
    out += "]}\n";
    return out;
}

Status
RunReport::writeJson(const std::string &path) const
{
    return writeFile(path, toJson());
}

} // namespace hetsim::obs
