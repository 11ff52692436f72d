/**
 * @file
 * On-chip SRAM cache model for the RNIC: an LRU cache (used for the
 * MTT/MPT translation cache; its misses are counted by the RNIC as
 * `rnic.mtt_refetches`). The WQE cache is modelled analytically
 * (Rnic::wqeHitProb), not as a structure.
 */

#ifndef SMART_RNIC_CACHE_MODEL_HPP
#define SMART_RNIC_CACHE_MODEL_HPP

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace smart::rnic {

/**
 * Fixed-capacity LRU cache keyed by 64-bit ids (MTT/MPT). Every WR
 * touches it two or three times, so it is flat: entries live in a
 * preallocated array threaded on an index-linked recency list, and a
 * linear-probing table (twice the capacity, backward-shift deletion)
 * maps keys to entries. No access allocates.
 */
class LruCache
{
  public:
    explicit LruCache(std::uint32_t capacity)
        : capacity_(capacity), entries_(capacity),
          slots_(std::bit_ceil(2 * static_cast<std::size_t>(capacity))),
          mask_(slots_.size() - 1)
    {
        assert(capacity > 0);
    }

    /**
     * Touch @p key: hit moves it to the front, miss inserts it (evicting
     * the least recently used entry if needed).
     * @return true on hit.
     */
    bool
    access(std::uint64_t key)
    {
        std::size_t s = probe(key);
        if (slots_[s].entry != kNone) {
            std::uint32_t e = slots_[s].entry;
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
            eraseSlot(probe(entries_[e].key));
            s = probe(key); // the erase may have shifted key's run
        }
        entries_[e].key = key;
        pushFront(e);
        slots_[s] = {key, e};
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

    struct Slot
    {
        std::uint64_t key = 0;
        std::uint32_t entry = kNone;
    };

    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
                   (key * 0x9e3779b97f4a7c15ull) >> 32) & mask_;
    }

    /** @return the slot holding @p key, or the empty slot ending its
     *  probe run. */
    std::size_t
    probe(std::uint64_t key) const
    {
        std::size_t s = home(key);
        while (slots_[s].entry != kNone && slots_[s].key != key)
            s = (s + 1) & mask_;
        return s;
    }

    /** Empty slot @p s, shifting later members of its run back so every
     *  key stays reachable from its home slot. */
    void
    eraseSlot(std::size_t s)
    {
        for (std::size_t j = (s + 1) & mask_; slots_[j].entry != kNone;
             j = (j + 1) & mask_) {
            // Slot j may move to s only if its home is not cyclically
            // within (s, j].
            std::size_t h = home(slots_[j].key);
            if (((j - h) & mask_) >= ((j - s) & mask_)) {
                slots_[s] = slots_[j];
                s = j;
            }
        }
        slots_[s].entry = kNone;
    }

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
    std::vector<Slot> slots_;
    std::size_t mask_;
};

} // namespace smart::rnic

#endif // SMART_RNIC_CACHE_MODEL_HPP
