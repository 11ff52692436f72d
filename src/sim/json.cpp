/**
 * @file
 * JSON serialization and a small recursive-descent parser.
 */

#include "sim/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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

namespace {

/** Parser state over the input string. */
struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error{};

    bool
    fail(const std::string &msg)
    {
        if (error.empty())
            error = msg + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word, Json value, Json &out)
    {
        std::size_t n = std::string(word).size();
        if (text.compare(pos, n, word) != 0)
            return fail("invalid literal");
        pos += n;
        out = std::move(value);
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        out.clear();
        while (pos < text.size()) {
            char c = text[pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos >= text.size())
                    return fail("bad escape");
                char e = text[pos++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos + 4 > text.size())
                        return fail("bad \\u escape");
                    unsigned code =
                        std::strtoul(text.substr(pos, 4).c_str(), nullptr,
                                     16);
                    pos += 4;
                    // Decode only the BMP subset we ever emit (control
                    // characters); anything else round-trips as '?'.
                    out += code < 0x80 ? static_cast<char>(code) : '?';
                    break;
                  }
                  default: return fail("bad escape");
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Json &out)
    {
        std::size_t start = pos;
        bool neg = pos < text.size() && text[pos] == '-';
        if (neg)
            ++pos;
        bool integral = true;
        while (pos < text.size()) {
            char c = text[pos];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos;
            } else {
                break;
            }
        }
        std::string tok = text.substr(start, pos - start);
        if (tok.empty() || tok == "-")
            return fail("invalid number");
        errno = 0;
        if (integral) {
            if (neg) {
                std::int64_t v = std::strtoll(tok.c_str(), nullptr, 10);
                if (errno != ERANGE) {
                    out = Json(v);
                    return true;
                }
            } else {
                std::uint64_t v = std::strtoull(tok.c_str(), nullptr, 10);
                if (errno != ERANGE) {
                    out = Json(v);
                    return true;
                }
            }
        }
        out = Json(std::strtod(tok.c_str(), nullptr));
        return true;
    }

    bool
    parseValue(Json &out, int depth)
    {
        if (depth > 200)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        switch (c) {
          case 'n': return literal("null", Json(nullptr), out);
          case 't': return literal("true", Json(true), out);
          case 'f': return literal("false", Json(false), out);
          case '"': {
            std::string s;
            if (!parseString(s))
                return false;
            out = Json(std::move(s));
            return true;
          }
          case '[': {
            ++pos;
            Json::Array arr;
            skipWs();
            if (consume(']')) {
                out = Json(std::move(arr));
                return true;
            }
            for (;;) {
                Json v;
                if (!parseValue(v, depth + 1))
                    return false;
                arr.push_back(std::move(v));
                if (consume(','))
                    continue;
                if (consume(']'))
                    break;
                return fail("expected ',' or ']'");
            }
            out = Json(std::move(arr));
            return true;
          }
          case '{': {
            ++pos;
            Json::Object obj;
            skipWs();
            if (consume('}')) {
                out = Json(std::move(obj));
                return true;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                if (!consume(':'))
                    return fail("expected ':'");
                Json v;
                if (!parseValue(v, depth + 1))
                    return false;
                obj.emplace_back(std::move(key), std::move(v));
                if (consume(','))
                    continue;
                if (consume('}'))
                    break;
                return fail("expected ',' or '}'");
            }
            out = Json(std::move(obj));
            return true;
          }
          default: return parseNumber(out);
        }
    }
};

} // namespace

bool
Json::parse(const std::string &text, Json &out, std::string *error)
{
    Parser p{text};
    if (!p.parseValue(out, 0)) {
        if (error)
            *error = p.error;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (error)
            *error = "trailing garbage at offset " + std::to_string(p.pos);
        return false;
    }
    return true;
}

} // namespace smart::sim
