/**
 * @file
 * On-chip SRAM cache model for the RNIC: an LRU cache (used for the
 * MTT/MPT translation cache; its misses are counted by the RNIC as
 * `rnic.mtt_refetches`). The WQE cache is modelled analytically
 * (Rnic::wqeHitProb), not as a structure.
 */

#ifndef SMART_RNIC_CACHE_MODEL_HPP
#define SMART_RNIC_CACHE_MODEL_HPP

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/flat_map.hpp"

namespace smart::rnic {

/**
 * Fixed-capacity LRU cache keyed by 64-bit ids (MTT/MPT). Every WR
 * touches it two or three times, so it is flat: entries live in a
 * preallocated array threaded on an index-linked recency list, and a
 * sim::FlatMap, reserved for `capacity` keys at load at most 1/2, maps
 * keys to entries. No access allocates.
 */
class LruCache
{
  public:
    explicit LruCache(std::uint32_t capacity)
        : capacity_(capacity), entries_(capacity)
    {
        assert(capacity > 0);
        index_.reserve(capacity);
    }

    /**
     * Touch @p key: hit moves it to the front, miss inserts it (evicting
     * the least recently used entry if needed).
     * @return true on hit.
     */
    bool
    access(std::uint64_t key)
    {
        if (const std::uint32_t *hit = index_.find(key)) {
            std::uint32_t e = *hit;
            if (e != head_) {
                unlink(e);
                pushFront(e);
            }
            return true;
        }
        std::uint32_t e;
        if (size_ < capacity_) {
            e = size_++;
        } else {
            e = tail_;
            unlink(e);
            index_.erase(entries_[e].key);
        }
        entries_[e].key = key;
        pushFront(e);
        index_.emplace(key, e);
        return false;
    }

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    struct Entry
    {
        std::uint64_t key = 0;
        std::uint32_t prev = kNone; // toward the most recent
        std::uint32_t next = kNone; // toward the least recent
    };

    void
    unlink(std::uint32_t e)
    {
        Entry &x = entries_[e];
        if (x.prev != kNone)
            entries_[x.prev].next = x.next;
        else
            head_ = x.next;
        if (x.next != kNone)
            entries_[x.next].prev = x.prev;
        else
            tail_ = x.prev;
    }

    void
    pushFront(std::uint32_t e)
    {
        Entry &x = entries_[e];
        x.prev = kNone;
        x.next = head_;
        if (head_ != kNone)
            entries_[head_].prev = e;
        else
            tail_ = e;
        head_ = e;
    }

    std::uint32_t capacity_;
    std::uint32_t size_ = 0;
    std::uint32_t head_ = kNone; // most recently used
    std::uint32_t tail_ = kNone; // least recently used
    std::vector<Entry> entries_;
    sim::FlatMap<std::uint32_t> index_; // key -> entry
};

} // namespace smart::rnic

#endif // SMART_RNIC_CACHE_MODEL_HPP
