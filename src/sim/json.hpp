/**
 * @file
 * Minimal JSON document model: build and serialize. No external
 * dependencies; used by the metrics/trace/report layer so bench results
 * are machine-readable without pulling in a JSON library.
 *
 * Object member order is preserved (vector of pairs), which keeps the
 * emitted reports diffable run-to-run.
 */

#ifndef SMART_SIM_JSON_HPP
#define SMART_SIM_JSON_HPP

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace smart::sim {

/** One JSON value (null / bool / number / string / array / object). */
class Json
{
  public:
    using Array = std::vector<Json>;
    using Object = std::vector<std::pair<std::string, Json>>;

    Json() : v_(nullptr) {}
    Json(std::nullptr_t) : v_(nullptr) {}
    Json(bool b) : v_(b) {}
    Json(double d) : v_(d) {}
    Json(std::uint64_t u) : v_(u) {}
    Json(std::int64_t i) : v_(i) {}
    Json(int i) : v_(static_cast<std::int64_t>(i)) {}
    Json(unsigned u) : v_(static_cast<std::uint64_t>(u)) {}
    Json(const char *s) : v_(std::string(s)) {}
    Json(std::string s) : v_(std::move(s)) {}
    Json(Array a) : v_(std::move(a)) {}
    Json(Object o) : v_(std::move(o)) {}

    /** @return an empty array value. */
    static Json array() { return Json(Array{}); }

    /** @return an empty object value. */
    static Json object() { return Json(Object{}); }

    bool isNull() const { return std::holds_alternative<std::nullptr_t>(v_); }
    bool isBool() const { return std::holds_alternative<bool>(v_); }
    bool isString() const { return std::holds_alternative<std::string>(v_); }
    bool isArray() const { return std::holds_alternative<Array>(v_); }
    bool isObject() const { return std::holds_alternative<Object>(v_); }

    bool asBool() const { return std::get<bool>(v_); }
    const std::string &asString() const { return std::get<std::string>(v_); }
    const Array &asArray() const { return std::get<Array>(v_); }
    Array &asArray() { return std::get<Array>(v_); }
    const Object &asObject() const { return std::get<Object>(v_); }
    Object &asObject() { return std::get<Object>(v_); }

    /** @return numeric value widened to double (0.0 if not a number). */
    double
    asDouble() const
    {
        if (auto *d = std::get_if<double>(&v_))
            return *d;
        if (auto *u = std::get_if<std::uint64_t>(&v_))
            return static_cast<double>(*u);
        if (auto *i = std::get_if<std::int64_t>(&v_))
            return static_cast<double>(*i);
        return 0.0;
    }

    /** @return numeric value as uint64 (0 if not a number; truncates). */
    std::uint64_t
    asUint() const
    {
        if (auto *u = std::get_if<std::uint64_t>(&v_))
            return *u;
        if (auto *i = std::get_if<std::int64_t>(&v_))
            return *i < 0 ? 0 : static_cast<std::uint64_t>(*i);
        if (auto *d = std::get_if<double>(&v_))
            return *d < 0 ? 0 : static_cast<std::uint64_t>(*d);
        return 0;
    }

    /** Append @p v to an array value. */
    Json &
    push(Json v)
    {
        asArray().push_back(std::move(v));
        return *this;
    }

    /** Set (or replace) member @p key of an object value. */
    Json &
    set(const std::string &key, Json v)
    {
        for (auto &[k, existing] : asObject()) {
            if (k == key) {
                existing = std::move(v);
                return *this;
            }
        }
        asObject().emplace_back(key, std::move(v));
        return *this;
    }

    /** @return member @p key of an object, or nullptr if absent. */
    const Json *
    find(const std::string &key) const
    {
        if (!isObject())
            return nullptr;
        for (const auto &[k, v] : asObject()) {
            if (k == key)
                return &v;
        }
        return nullptr;
    }

    /** Serialize to @p os; @p indent > 0 pretty-prints. */
    void dump(std::ostream &os, int indent = 0) const;

    /** @return the serialized document as a string. */
    std::string dump(int indent = 0) const;

  private:
    void dumpImpl(std::ostream &os, int indent, int depth) const;

    std::variant<std::nullptr_t, bool, double, std::uint64_t, std::int64_t,
                 std::string, Array, Object>
        v_;
};

} // namespace smart::sim

#endif // SMART_SIM_JSON_HPP
