/**
 * @file
 * Most-recently-used line tracker for the warmup methodology.
 *
 * During the (microarchitecture-independent) profiling run, each core
 * records its most recently touched cache lines, with a capacity
 * equal to the largest shared LLC that will ever be simulated. Before
 * detailed simulation of a barrierpoint, each core's list is replayed
 * in access order (oldest first) to reconstruct cache and coherence
 * state — the paper's extension of No-State-Loss / Live-points to
 * multi-threaded, multi-level hierarchies.
 *
 * One capture serves every capacity it provably covers. A tracker
 * records its high-water mark (the longest its main list ever grew)
 * and whether it ever evicted. A tracker that never evicted passed
 * through exactly the states a tracker of any capacity at or above
 * its high-water mark would have, so its lists are that tracker's
 * lists too; one that evicted is exact for its own capacity only.
 *
 * Coherence state is reconstructed from two dirtiness levels:
 *   - a line is replayed *privately dirty* (Modified in L1/L2) when
 *     it has stayed within an L2-capacity LRU window of this core's
 *     accesses since it was last written;
 *   - a line whose dirty copy has aged past that window is replayed
 *     *LLC dirty*: present Shared in the private levels but Modified
 *     in the L3, so its eventual eviction still writes memory.
 *
 * This sits on the profiler's per-memory-access hot path, so all
 * per-line state (positions in both recency lists, both dirtiness
 * bits) lives in a single FlatMap record — one hash probe per access
 * instead of the five-plus map operations of the previous
 * `std::list` + `unordered_map` + `unordered_set` representation —
 * and the recency lists themselves are intrusive index-linked arenas
 * with no per-node allocation.
 */

#ifndef BP_PROFILE_MRU_TRACKER_H
#define BP_PROFILE_MRU_TRACKER_H

#include <cstdint>
#include <vector>

#include "src/support/flat_map.h"
#include "src/support/intrusive_lru.h"

namespace bp {

/** One retained line and the coherence state it should replay with. */
struct MruEntry
{
    uint64_t line;
    bool written;   ///< replay as Modified in the private levels
    bool llcDirty;  ///< replay with a dirty LLC copy
};

/** Bounded LRU-ordered set of the lines one core touched most recently. */
class MruTracker
{
  public:
    /**
     * @param capacity_lines  lines retained (largest simulated LLC)
     * @param private_lines   private-cache (L2) capacity used to decide
     *                        whether a written line is still dirty in
     *                        the private levels
     */
    explicit MruTracker(uint64_t capacity_lines,
                        uint64_t private_lines = 4096);

    /** Record a touch of @p line (moves it to MRU). */
    void
    access(uint64_t line, bool write)
    {
        access(line, write, flatHash(line));
    }

    /** access() with a caller-precomputed flatHash(line). */
    void access(uint64_t line, bool write, uint64_t hash);

    /** Start the probe load for a line about to be accessed. */
    void prefetch(uint64_t hash) const { lines_.prefetch(hash); }

    /**
     * Another core wrote @p line: this core's copy is gone. Drops the
     * line from the tracker entirely (coherence-aware capture).
     */
    void invalidateLine(uint64_t line);

    /**
     * Another core read @p line while this core held it dirty: the
     * dirty data migrated to the LLC (cache-to-cache downgrade).
     */
    void downgradeLine(uint64_t line);

    /**
     * @return retained entries in replay order: oldest (LRU) first,
     * with every LLC-dirty flag kept (see applyLlcDirtyWindow()).
     */
    std::vector<MruEntry> snapshot() const;

    uint64_t size() const { return main_.size(); }
    uint64_t capacity() const { return capacity_; }

    /** The largest size() reached since construction or reset(). */
    uint64_t highWater() const { return highWater_; }

    /** True once a new line arrived at a full main list. */
    bool evicted() const { return evicted_; }

    /** Drop all state, the high-water mark and the eviction fact too. */
    void reset();

  private:
    /**
     * Everything known about one line, living in one FlatMap slot.
     * A record exists while the line is in either recency list or
     * carries a dirty LLC copy; it is dropped when all three facts
     * lapse (so the map tracks the retained window, not the whole
     * footprint).
     */
    struct LineState
    {
        uint32_t mainIdx = IntrusiveLru::kNil;  ///< main-list node
        uint32_t privIdx = IntrusiveLru::kNil;  ///< private-window node
        bool privDirty = false;  ///< dirty in the private levels
        bool llcDirty = false;   ///< dirty copy lives in the LLC
    };

    /** Drop @p state's record when nothing references the line.
     *  @return true when the map shifted (pointers invalidated). */
    bool releaseIfIdle(uint64_t line, const LineState &state);

    uint64_t capacity_;
    uint64_t privateCapacity_;
    uint64_t highWater_ = 0;
    bool evicted_ = false;

    FlatMap<LineState> lines_;
    IntrusiveLru main_;  ///< LLC-sized recency order, front = LRU
    IntrusiveLru priv_;  ///< L2-sized dirtiness filter, front = LRU
};

/**
 * Drop the LLC-dirty flag of every entry of @p entries (a snapshot(),
 * oldest first) farther than @p window positions from the MRU end.
 * Older dirty data has likely been written back by LLC contention
 * already; pass the per-core share of the simulated LLC.
 */
void applyLlcDirtyWindow(std::vector<MruEntry> &entries, uint64_t window);

} // namespace bp

#endif // BP_PROFILE_MRU_TRACKER_H
