/**
 * @file
 * On-chip SRAM cache model for the RNIC: an LRU cache (used for the
 * MTT/MPT translation cache) that counts hits and misses for
 * Neo-Host-style reporting. The WQE cache is modelled analytically
 * (Rnic::wqeHitProb), not as a structure.
 */

#ifndef SMART_RNIC_CACHE_MODEL_HPP
#define SMART_RNIC_CACHE_MODEL_HPP

#include <cstdint>
#include <list>
#include <unordered_map>

#include "sim/stats.hpp"

namespace smart::rnic {

/** Fixed-capacity LRU cache keyed by 64-bit ids (MTT/MPT). */
class LruCache
{
  public:
    explicit LruCache(std::uint32_t capacity) : capacity_(capacity) {}

    /**
     * Touch @p key: hit moves it to the front, miss inserts it (evicting
     * the least recently used entry if needed).
     * @return true on hit.
     */
    bool
    access(std::uint64_t key)
    {
        auto it = index_.find(key);
        if (it != index_.end()) {
            hits_.add();
            order_.splice(order_.begin(), order_, it->second);
            return true;
        }
        misses_.add();
        if (order_.size() >= capacity_) {
            index_.erase(order_.back());
            order_.pop_back();
        }
        order_.push_front(key);
        index_[key] = order_.begin();
        return false;
    }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint32_t capacity() const { return capacity_; }
    std::size_t size() const { return order_.size(); }

    /** @return hit ratio over the cache's lifetime (1.0 when untouched). */
    double
    hitRatio() const
    {
        std::uint64_t total = hits() + misses();
        return total ? static_cast<double>(hits()) / total : 1.0;
    }

    void
    resetStats()
    {
        hits_.reset();
        misses_.reset();
    }

  private:
    std::uint32_t capacity_;
    std::list<std::uint64_t> order_;
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        index_;
    smart::sim::Counter hits_;
    smart::sim::Counter misses_;
};

} // namespace smart::rnic

#endif // SMART_RNIC_CACHE_MODEL_HPP
