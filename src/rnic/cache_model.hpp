/**
 * @file
 * On-chip SRAM cache model for the RNIC: an LRU cache (used for the
 * MTT/MPT translation cache; its misses are counted by the RNIC as
 * `rnic.mtt_refetches`). The WQE cache is modelled analytically
 * (Rnic::wqeHitProb), not as a structure.
 */

#ifndef SMART_RNIC_CACHE_MODEL_HPP
#define SMART_RNIC_CACHE_MODEL_HPP

#include <cstdint>
#include <list>
#include <unordered_map>

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
            order_.splice(order_.begin(), order_, it->second);
            return true;
        }
        if (order_.size() >= capacity_) {
            index_.erase(order_.back());
            order_.pop_back();
        }
        order_.push_front(key);
        index_[key] = order_.begin();
        return false;
    }

  private:
    std::uint32_t capacity_;
    std::list<std::uint64_t> order_;
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        index_;
};

} // namespace smart::rnic

#endif // SMART_RNIC_CACHE_MODEL_HPP
