/**
 * @file
 * Fixed-capacity core bitmaps and the core-count capacities of the
 * simulator.
 *
 * This header is the root of the capacity-derivation chain for "a set
 * of cores" anywhere in the system:
 *
 *   kMaxCores
 *     -> MemSystem's constructor (the single runtime validation of a
 *        machine's core count)
 *     -> MachineConfig::withCores / tryByName ("<N>-core" resolution)
 *     -> Workload's thread-count cap (every profiled thread must be
 *        simulable)
 *     -> the warmup-capture holder sets in core/pipeline.cpp
 *   kMaxCoresPerSocket
 *     -> the width of the core-valid word in every L3 way (a socket's
 *        private holders always fit one 64-bit word) and the range of
 *        the way's owner field
 *   kMaxSockets = kMaxCores / 8
 *     -> CoreSet<kMaxSockets> home-directory socket masks (the Table I
 *        recipe is 8 cores per socket; narrower sockets are legal as
 *        long as the socket count fits)
 *
 * CoreSet<MaxBits> is a word-array bitmap in the style of the Linux
 * kernel's bitmap/cpumask: set/clear/test/andNot plus popcount and
 * find_next_bit-style iteration, all shift-UB-free by construction
 * (every shift amount is reduced modulo the 64-bit word width before
 * use, and bit indices are asserted in range).
 */

#ifndef BP_SUPPORT_CORE_SET_H
#define BP_SUPPORT_CORE_SET_H

#include <bit>
#include <cstdint>

#include "src/support/logging.h"

namespace bp {

/**
 * Hard capacity of a simulated machine's core count (and of a
 * workload's thread count). MemSystem's constructor is the single
 * place that validates a configuration against it at runtime.
 */
inline constexpr unsigned kMaxCores = 1024;

/**
 * Width of an L3 way's core-valid word: every socket's private
 * holders must fit one 64-bit word. Machines wider than this must be
 * split into sockets of at most 64 cores (MemSystem validates).
 */
inline constexpr unsigned kMaxCoresPerSocket = 64;

/**
 * Socket capacity of the home directory's socket masks. kMaxCores / 8
 * matches the Table I recipe of 8 cores per socket at full width;
 * any coresPerSocket in [1, kMaxCoresPerSocket] is legal as long as
 * the resulting socket count fits (e.g. 64 single-core sockets).
 */
inline constexpr unsigned kMaxSockets = kMaxCores / 8;

/**
 * Fixed-capacity bitmap over core (or socket) indices [0, MaxBits).
 *
 * Storage is an inline array of 64-bit words; a default-constructed
 * set is empty. Iteration (firstSet/nextSet/forEachSetBit) visits set
 * bits in ascending index order — the same order a countr_zero walk
 * of a flat mask produces, which is what keeps the coherence
 * directory's invalidation sequence bit-identical to the old
 * single-word representation on <= 64-core machines.
 */
template <unsigned MaxBits>
class CoreSet
{
    static_assert(MaxBits > 0, "empty bitmap");

  public:
    static constexpr unsigned kBits = MaxBits;
    static constexpr unsigned kWordBits = 64;
    static constexpr unsigned kWords = (MaxBits + kWordBits - 1) / kWordBits;

    constexpr CoreSet() = default;

    /** @return a set holding only @p bit. */
    static constexpr CoreSet
    single(unsigned bit)
    {
        CoreSet s;
        s.set(bit);
        return s;
    }

    constexpr bool
    test(unsigned bit) const
    {
        BP_ASSERT(bit < MaxBits, "bit index out of range");
        return (words_[bit / kWordBits] >> (bit % kWordBits)) & 1u;
    }

    constexpr void
    set(unsigned bit)
    {
        BP_ASSERT(bit < MaxBits, "bit index out of range");
        words_[bit / kWordBits] |= uint64_t{1} << (bit % kWordBits);
    }

    constexpr void
    clear(unsigned bit)
    {
        BP_ASSERT(bit < MaxBits, "bit index out of range");
        words_[bit / kWordBits] &= ~(uint64_t{1} << (bit % kWordBits));
    }

    /** Clear every bit. */
    constexpr void
    reset()
    {
        for (unsigned w = 0; w < kWords; ++w)
            words_[w] = 0;
    }

    constexpr bool
    none() const
    {
        for (unsigned w = 0; w < kWords; ++w) {
            if (words_[w])
                return false;
        }
        return true;
    }

    constexpr bool any() const { return !none(); }

    /** @return number of set bits. */
    constexpr unsigned
    count() const
    {
        unsigned n = 0;
        for (unsigned w = 0; w < kWords; ++w)
            n += static_cast<unsigned>(std::popcount(words_[w]));
        return n;
    }

    /** *this &= ~other. */
    constexpr void
    andNot(const CoreSet &other)
    {
        for (unsigned w = 0; w < kWords; ++w)
            words_[w] &= ~other.words_[w];
    }

    /** *this |= other. */
    constexpr void
    orWith(const CoreSet &other)
    {
        for (unsigned w = 0; w < kWords; ++w)
            words_[w] |= other.words_[w];
    }

    /** @return true when the two sets share any bit. */
    constexpr bool
    intersects(const CoreSet &other) const
    {
        for (unsigned w = 0; w < kWords; ++w) {
            if (words_[w] & other.words_[w])
                return true;
        }
        return false;
    }

    /** @return true when any bit other than @p bit is set. */
    constexpr bool
    anyOtherThan(unsigned bit) const
    {
        BP_ASSERT(bit < MaxBits, "bit index out of range");
        for (unsigned w = 0; w < kWords; ++w) {
            uint64_t word = words_[w];
            if (w == bit / kWordBits)
                word &= ~(uint64_t{1} << (bit % kWordBits));
            if (word)
                return true;
        }
        return false;
    }

    /** @return lowest set bit, or -1 when empty. */
    constexpr int
    firstSet() const
    {
        for (unsigned w = 0; w < kWords; ++w) {
            if (words_[w]) {
                return static_cast<int>(
                    w * kWordBits +
                    static_cast<unsigned>(std::countr_zero(words_[w])));
            }
        }
        return -1;
    }

    /**
     * @return lowest set bit strictly greater than @p prev, or -1 —
     * find_next_bit. Iterate a set with
     * `for (int b = s.firstSet(); b >= 0; b = s.nextSet(b))`.
     */
    constexpr int
    nextSet(unsigned prev) const
    {
        const unsigned start = prev + 1;
        if (start >= MaxBits)
            return -1;
        unsigned w = start / kWordBits;
        // Mask off bits at or below prev; start % 64 < 64, so the
        // shift is well defined.
        uint64_t word = words_[w] & (~uint64_t{0} << (start % kWordBits));
        while (true) {
            if (word) {
                return static_cast<int>(
                    w * kWordBits +
                    static_cast<unsigned>(std::countr_zero(word)));
            }
            if (++w >= kWords)
                return -1;
            word = words_[w];
        }
    }

    /** Invoke @p fn(bit) for every set bit, in ascending order. */
    template <typename Fn>
    constexpr void
    forEachSetBit(Fn &&fn) const
    {
        for (unsigned w = 0; w < kWords; ++w) {
            uint64_t word = words_[w];
            while (word) {
                const unsigned bit =
                    static_cast<unsigned>(std::countr_zero(word));
                word &= word - 1;
                fn(w * kWordBits + bit);
            }
        }
    }

    friend constexpr bool
    operator==(const CoreSet &a, const CoreSet &b)
    {
        for (unsigned w = 0; w < kWords; ++w) {
            if (a.words_[w] != b.words_[w])
                return false;
        }
        return true;
    }

    friend constexpr bool
    operator!=(const CoreSet &a, const CoreSet &b)
    {
        return !(a == b);
    }

  private:
    uint64_t words_[kWords] = {};
};

} // namespace bp

#endif // BP_SUPPORT_CORE_SET_H
