#include "src/memsys/cache.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <new>
#include <type_traits>

#include "src/support/logging.h"
#include "src/trace/micro_op.h"

namespace bp {

uint64_t
CacheGeometry::numLines() const
{
    return sizeBytes / kLineBytes;
}

uint64_t
CacheGeometry::numSets() const
{
    return numLines() / assoc;
}

void
PageUnmap::operator()(void *pages) const
{
    ::munmap(pages, bytes);
}

namespace {

/**
 * Way arrays are anonymous mappings rather than heap blocks. Freeing
 * one returns its pages to the OS at once; a multi-megabyte heap block
 * freed by one simulator can stay resident in the malloc heap for the
 * rest of the process. And a page is only backed once a line is placed
 * in one of its sets (lookups do not read empty sets).
 */
template <typename Way>
std::unique_ptr<Way[], PageUnmap>
mapWays(size_t count)
{
    static_assert(std::is_trivial_v<Way>, "ways live in raw pages");
    const size_t bytes = count * sizeof(Way);
    void *pages = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (pages == MAP_FAILED)
        throw std::bad_alloc();
    return {static_cast<Way *>(pages), PageUnmap{bytes}};
}

} // namespace

template <typename Way>
BasicCache<Way>::BasicCache(const CacheGeometry &geometry)
    : geometry_(geometry),
      numSets_(geometry.numSets()),
      assoc_(geometry.assoc),
      clock_(numSets_, 0)
{
    BP_ASSERT(numSets_ > 0 && std::has_single_bit(numSets_),
              "cache set count must be a positive power of two");
    BP_ASSERT(assoc_ > 0, "associativity must be positive");
    ways_ = mapWays<Way>(numSets_ * assoc_);
}

template <typename Way>
LineState
BasicCache<Way>::state(uint64_t line) const
{
    const int way = lookup(line);
    return way < 0 ? LineState::Invalid : at(line, way).state;
}

template <typename Way>
std::optional<Eviction>
BasicCache<Way>::insert(uint64_t line, LineState state, int *way_out)
{
    const size_t set_index = setOf(line);
    Way *set = &ways_[set_index * assoc_];
    if (clock_[set_index] == 0)
        std::fill_n(set, assoc_, Way{});  // empty set: drop stale ways

    // One pass finds a resident copy, else the victim: the first
    // invalid way, else the true-LRU way (lowest stamp, first on ties).
    int resident = -1, invalid = -1, lru_way = 0;
    uint32_t best_lru = UINT32_MAX;
    for (unsigned w = 0; w < assoc_; ++w) {
        if (set[w].state == LineState::Invalid) {
            if (invalid < 0)
                invalid = static_cast<int>(w);
        } else if (set[w].tag == line) {
            resident = static_cast<int>(w);
            break;
        } else if (set[w].lru < best_lru) {
            best_lru = set[w].lru;
            lru_way = static_cast<int>(w);
        }
    }

    std::optional<Eviction> evicted;
    int victim = resident;
    if (resident >= 0) {
        // Re-insert over the existing copy, merging states: a resident
        // Modified line stays Modified even when the new copy arrives
        // Shared, so re-insertion can never silently drop dirtiness
        // without a writeback.
        if (set[resident].state == LineState::Modified)
            state = LineState::Modified;
    } else {
        victim = invalid >= 0 ? invalid : lru_way;
        const Way &old = set[victim];
        if (old.state != LineState::Invalid) {
            evicted = Eviction{old.tag, old.state == LineState::Modified};
            if constexpr (std::is_same_v<Way, DirectoryWay>)
                evicted->sharers = old.sharers;
        }
        set[victim] = Way{};
    }

    Way &way = set[victim];
    way.tag = line;
    way.state = state;
    way.lru = static_cast<uint32_t>(++clock_[set_index]);
    if (way_out)
        *way_out = victim;
    return evicted;
}

template <typename Way>
LineState
BasicCache<Way>::invalidate(uint64_t line)
{
    const int way = lookup(line);
    if (way < 0)
        return LineState::Invalid;
    Way &entry = at(line, way);
    const LineState prior = entry.state;
    entry.state = LineState::Invalid;
    return prior;
}

template <typename Way>
void
BasicCache<Way>::reset()
{
    std::fill(clock_.begin(), clock_.end(), 0);
}

template <typename Way>
uint64_t
BasicCache<Way>::occupancy() const
{
    uint64_t count = 0;
    forEachLine([&](const Way &) { ++count; });
    return count;
}

template class BasicCache<CacheWay>;
template class BasicCache<DirectoryWay>;

} // namespace bp
