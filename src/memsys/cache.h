/**
 * @file
 * Set-associative cache with LRU replacement and MSI line states.
 *
 * The cache stores line indices (byte address >> 6), not byte
 * addresses. It is a passive tag store: coherence decisions are made
 * by MemSystem, which calls lookup/insert/invalidate and reads or
 * writes the way that lookup() found through at(), so a caller scans
 * each set once.
 *
 * A set whose LRU clock is zero holds nothing, whatever its ways'
 * bytes say: lookups miss without reading them and the first insert
 * clears the set. So reset() only zeroes the clocks, and a page of the
 * way array (an anonymous mapping of its own) is first touched by a
 * write, when a line is placed in one of its sets. A reset cache keeps
 * its pages; sets a run never reaches are never backed by memory.
 *
 * The way type is a parameter. Private caches hold CacheWay (tag, LRU
 * stamp, state). An inclusive L3 holds DirectoryWay, which adds the
 * socket's coherence-directory bits for the line, kept where the line
 * lives (see MemSystem); L1 and L2 ways stay tag-only.
 */

#ifndef BP_MEMSYS_CACHE_H
#define BP_MEMSYS_CACHE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace bp {

/** MSI coherence state of a cached line. */
enum class LineState : uint8_t {
    Invalid,
    Shared,    ///< clean, potentially multiple holders
    Modified,  ///< writable and dirty, single holder
};

/** Geometry and access latency of one cache level. */
struct CacheGeometry
{
    uint64_t sizeBytes;
    unsigned assoc;
    unsigned latency;       ///< access time in core cycles

    uint64_t numLines() const;
    uint64_t numSets() const;
};

/** One way of a private cache. CacheWay{} is an empty way. */
struct CacheWay
{
    uint64_t tag;
    uint32_t lru;
    LineState state;
};

/**
 * One way of an inclusive L3, with the socket's directory state for
 * its line. DirectoryWay{} is an empty way: a newly placed line starts
 * with no sharers, no owner and no other socket.
 */
struct DirectoryWay
{
    uint64_t tag;
    uint64_t sharers;  ///< core-valid word: bit i = core i of the socket
    uint32_t lru;
    LineState state;
    bool owned;        ///< a core of this socket holds it Modified
    uint8_t owner;     ///< that core's bit, when owned
    bool shared;       ///< another socket's L3 may hold the line
};

/** Result of an eviction: the victim line, its dirtiness and sharers. */
struct Eviction
{
    uint64_t line;
    bool dirty;
    uint64_t sharers = 0;  ///< victim's core-valid word (DirectoryWay)
};

/** Unmaps a way array's pages; see BasicCache's constructor. */
struct PageUnmap
{
    size_t bytes = 0;
    void operator()(void *pages) const;
};

/**
 * A single set-associative cache array with true-LRU replacement.
 */
template <typename Way>
class BasicCache
{
  public:
    explicit BasicCache(const CacheGeometry &geometry);

    /** @return way index of @p line, or -1 on miss. Does not touch LRU. */
    int
    lookup(uint64_t line) const
    {
        const size_t set_index = setOf(line);
        if (clock_[set_index] == 0)
            return -1;  // empty set: its ways are not read
        const Way *set = &ways_[set_index * assoc_];
        for (unsigned w = 0; w < assoc_; ++w) {
            if (set[w].state != LineState::Invalid && set[w].tag == line)
                return static_cast<int>(w);
        }
        return -1;
    }

    /** @return true when @p line is present. */
    bool contains(uint64_t line) const { return lookup(line) >= 0; }

    /** @return the way @p way of @p line's set (from lookup()). */
    Way &
    at(uint64_t line, int way)
    {
        return ways_[setOf(line) * assoc_ + way];
    }
    const Way &
    at(uint64_t line, int way) const
    {
        return ways_[setOf(line) * assoc_ + way];
    }

    /** Update LRU so @p way in the set of @p line is most recent. */
    void
    touch(uint64_t line, int way)
    {
        at(line, way).lru = static_cast<uint32_t>(++clock_[setOf(line)]);
    }

    /** @return coherence state of @p line (Invalid when absent). */
    LineState state(uint64_t line) const;

    /**
     * Insert @p line in state @p state, evicting the LRU victim of the
     * set when it is full. Inserting over a resident copy merges
     * states (Modified wins) and keeps the rest of its way, so a dirty
     * line is never downgraded without an explicit write through at().
     * One scan of the set finds both a resident copy and the victim.
     *
     * @param way_out if non-null, receives the way now holding @p line
     * @return the eviction performed, if any.
     */
    std::optional<Eviction> insert(uint64_t line, LineState state,
                                   int *way_out = nullptr);

    /**
     * Remove @p line from the cache.
     *
     * @return the line's state prior to invalidation.
     */
    LineState invalidate(uint64_t line);

    /** Invoke @p fn(way) for every resident way. */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (size_t set = 0; set < numSets_; ++set) {
            if (clock_[set] == 0)
                continue;
            for (size_t i = set * assoc_; i < (set + 1) * assoc_; ++i) {
                if (ways_[i].state != LineState::Invalid)
                    fn(ways_[i]);
            }
        }
    }

    /** Drop all contents (cold cache); the ways are not touched. */
    void reset();

    /** @return number of valid lines currently resident. */
    uint64_t occupancy() const;

    const CacheGeometry &geometry() const { return geometry_; }

  private:
    size_t
    setOf(uint64_t line) const
    {
        return static_cast<size_t>(line & (numSets_ - 1));
    }

    CacheGeometry geometry_;
    uint64_t numSets_;
    unsigned assoc_;
    /**
     * numSets_ * assoc_ ways, set-major, in pages of their own: a
     * set's ways are meaningful only while its clock is nonzero.
     */
    std::unique_ptr<Way[], PageUnmap> ways_;
    /**
     * Per-set LRU clock, counting the set's inserts and touches since
     * the last reset; zero = empty set. Ways keep its low 32 bits as
     * their LRU stamp; the clock itself never wraps back to zero.
     */
    std::vector<uint64_t> clock_;
};

/** A private (L1/L2) cache. */
using SetAssocCache = BasicCache<CacheWay>;

/** An inclusive L3 carrying its socket's directory bits per way. */
using DirectoryCache = BasicCache<DirectoryWay>;

extern template class BasicCache<CacheWay>;
extern template class BasicCache<DirectoryWay>;

} // namespace bp

#endif // BP_MEMSYS_CACHE_H
