/**
 * @file
 * Flat open-addressing hash map keyed by 64-bit ids.
 */

#ifndef SMART_SIM_FLAT_MAP_HPP
#define SMART_SIM_FLAT_MAP_HPP

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace smart::sim {

/**
 * Hash map from 64-bit keys to trivially copyable values, stored inline
 * in one power-of-two slot array: linear probing, backward-shift
 * deletion (no tombstones), growth by doubling past 3/4 load. A lookup
 * touches the cache line of its home slot and, on a collision, the next
 * ones, where a node-based map chases a bucket and a node pointer.
 *
 * Map semantics match std::unordered_map's find / try_emplace /
 * insert_or_assign / erase / clear; there is no iteration, so nothing
 * can depend on slot order. Every key value is valid. A value pointer
 * stays valid until the next insert (which may grow the table) or erase
 * (which may shift other slots back).
 */
template <typename V>
class FlatMap
{
    static_assert(std::is_trivially_copyable_v<V>);

  public:
    std::size_t size() const { return size_; }

    /**
     * Size the table for @p n keys at load at most 1/2, so the first
     * @p n inserts allocate nothing and probe short runs.
     */
    void
    reserve(std::size_t n)
    {
        std::size_t want = std::bit_ceil(std::max(2 * n, kMinSlots));
        if (want > slots_.size())
            rehash(want);
    }

    /** @return the value of @p key, or nullptr when absent. */
    V *
    find(std::uint64_t key)
    {
        if (size_ == 0)
            return nullptr;
        Slot &s = slots_[probe(key)];
        return s.used ? &s.value : nullptr;
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    /**
     * Insert @p value under @p key if the key is absent; a present key
     * keeps its value. @return the key's value and whether it was
     * inserted (std::unordered_map::try_emplace).
     */
    std::pair<V *, bool>
    emplace(std::uint64_t key, const V &value)
    {
        reserveOneMore();
        Slot &s = slots_[probe(key)];
        if (s.used)
            return {&s.value, false};
        s.key = key;
        s.used = true;
        s.value = value;
        ++size_;
        return {&s.value, true};
    }

    /** Insert @p value under @p key, overwriting a present value. */
    V &
    insertOrAssign(std::uint64_t key, const V &value)
    {
        V &v = *emplace(key, value).first;
        v = value;
        return v;
    }

    /** Remove @p key. @return whether it was present. */
    bool
    erase(std::uint64_t key)
    {
        if (size_ == 0)
            return false;
        std::size_t s = probe(key);
        if (!slots_[s].used)
            return false;
        eraseSlot(s);
        --size_;
        return true;
    }

    /** Remove every key; the slot array keeps its capacity. */
    void
    clear()
    {
        for (Slot &s : slots_)
            s.used = false;
        size_ = 0;
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        bool used = false;
        V value{};
    };

    static constexpr std::size_t kMinSlots = 16;

    std::size_t
    home(std::uint64_t key) const
    {
        // Fibonacci hashing: the product's top bits mix every key bit.
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                        shift_);
    }

    /** @return the slot holding @p key, or the empty slot ending its
     *  probe run. @pre the table has at least one empty slot. */
    std::size_t
    probe(std::uint64_t key) const
    {
        std::size_t s = home(key);
        while (slots_[s].used && slots_[s].key != key)
            s = (s + 1) & mask_;
        return s;
    }

    /** Empty slot @p s, shifting later members of its run back so every
     *  key stays reachable from its home slot. */
    void
    eraseSlot(std::size_t s)
    {
        for (std::size_t j = (s + 1) & mask_; slots_[j].used;
             j = (j + 1) & mask_) {
            // Slot j may move to s only if its home is not cyclically
            // within (s, j].
            std::size_t h = home(slots_[j].key);
            if (((j - h) & mask_) >= ((j - s) & mask_)) {
                slots_[s] = slots_[j];
                s = j;
            }
        }
        slots_[s].used = false;
    }

    /** Grow (doubling) so one more key keeps the load at most 3/4. */
    void
    reserveOneMore()
    {
        if (4 * (size_ + 1) <= 3 * slots_.size())
            return;
        rehash(slots_.empty() ? kMinSlots : 2 * slots_.size());
    }

    /** Move every key into a new table of @p n slots (a power of two). */
    void
    rehash(std::size_t n)
    {
        std::vector<Slot> old(n);
        old.swap(slots_);
        mask_ = slots_.size() - 1;
        shift_ = 64;
        for (std::size_t n = slots_.size(); n > 1; n >>= 1)
            --shift_;
        for (const Slot &o : old) {
            if (o.used)
                slots_[probe(o.key)] = o;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
};

} // namespace smart::sim

#endif // SMART_SIM_FLAT_MAP_HPP
