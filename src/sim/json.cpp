/**
 * @file
 * JSON serialization.
 */

#include "sim/json.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace smart::sim {

namespace {

void
dumpString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
newlineIndent(std::ostream &os, int indent, int depth)
{
    if (indent <= 0)
        return;
    os << '\n';
    for (int i = 0; i < indent * depth; ++i)
        os << ' ';
}

} // namespace

void
Json::dumpImpl(std::ostream &os, int indent, int depth) const
{
    if (isNull()) {
        os << "null";
    } else if (isBool()) {
        os << (asBool() ? "true" : "false");
    } else if (auto *u = std::get_if<std::uint64_t>(&v_)) {
        os << *u;
    } else if (auto *i = std::get_if<std::int64_t>(&v_)) {
        os << *i;
    } else if (auto *d = std::get_if<double>(&v_)) {
        if (std::isfinite(*d)) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.17g", *d);
            os << buf;
        } else {
            os << "null"; // JSON has no inf/nan
        }
    } else if (isString()) {
        dumpString(os, asString());
    } else if (isArray()) {
        const Array &a = asArray();
        os << '[';
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (i)
                os << ',';
            newlineIndent(os, indent, depth + 1);
            a[i].dumpImpl(os, indent, depth + 1);
        }
        if (!a.empty())
            newlineIndent(os, indent, depth);
        os << ']';
    } else {
        const Object &o = asObject();
        os << '{';
        for (std::size_t i = 0; i < o.size(); ++i) {
            if (i)
                os << ',';
            newlineIndent(os, indent, depth + 1);
            dumpString(os, o[i].first);
            os << (indent > 0 ? ": " : ":");
            o[i].second.dumpImpl(os, indent, depth + 1);
        }
        if (!o.empty())
            newlineIndent(os, indent, depth);
        os << '}';
    }
}

void
Json::dump(std::ostream &os, int indent) const
{
    dumpImpl(os, indent, 0);
}

std::string
Json::dump(int indent) const
{
    std::ostringstream os;
    dump(os, indent);
    return os.str();
}

} // namespace smart::sim
