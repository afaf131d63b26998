/**
 * @file
 * Multi-socket cache hierarchy with MSI directory coherence.
 *
 * Topology (per the paper's Table I):
 *   - per core:   private L1-D and private L2 (L2 inclusive of L1)
 *   - per socket: shared L3, inclusive of all L1/L2 in the socket
 *   - per socket: DRAM channel with fixed latency plus a bandwidth
 *     queueing model (64 B transfers at the configured GB/s)
 *
 * Coherence is a line-granularity MSI directory, stored the way an
 * inclusive hierarchy stores it in hardware:
 *   - In the L3 ways. Each L3 way (DirectoryWay) carries its socket's
 *     directory state for the line: a 64-bit core-valid word with one
 *     bit per core of the socket, set exactly while the line is in
 *     that core's L2; the Modified owner, if it is in this socket; and
 *     a flag saying another socket's L3 may hold the line too.
 *     Inclusion guarantees the L3 way exists whenever a core of the
 *     socket holds the line, so a private miss finds the line's
 *     sharers in the set it scans anyway, and an L3 eviction hands the
 *     core-valid word back with the victim.
 *   - A home map (FlatMap, one entry per line held by any L3) with the
 *     socket mask of L3 holders and, for a line in two or more L3s,
 *     the socket recording its owner. It is read on L3 misses and,
 *     for lines flagged as held by another socket, on stores and
 *     downgrades; lines private to one socket never consult it. The
 *     map exists only once a second socket is in use: while the cores
 *     of one socket alone have touched memory since construction or
 *     reset(), that socket's L3 is the whole directory. This covers a
 *     single-socket machine and a run with fewer threads than one
 *     socket has cores. When a core of a second socket first touches
 *     memory, the map is built from the first socket's L3 ways, each
 *     line with that socket alone in its mask.
 * Invalidation visits holders socket by socket in ascending order,
 * then cores ascending within a socket: ascending global core order.
 * Stores to shared lines invalidate remote copies; reads of remotely
 * modified lines downgrade the owner to Shared and reflect the dirty
 * data to memory (a simple, valid MSI variant). checkInvariants()
 * verifies the directory against the cache contents.
 *
 * The L1-I cache is configured for completeness but modelled as ideal:
 * the synthetic workloads' code footprints fit comfortably in a 32 KB
 * L1-I, matching the NPB kernels the paper uses.
 */

#ifndef BP_MEMSYS_MEM_SYSTEM_H
#define BP_MEMSYS_MEM_SYSTEM_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/memsys/cache.h"
#include "src/support/core_set.h"
#include "src/support/flat_map.h"

namespace bp {

class Serializer;
class Deserializer;

/** Where an access was satisfied. */
enum class MemLevel : uint8_t {
    L1,
    L2,
    L3,
    RemoteCache,  ///< another socket's L3 or a remote Modified copy
    Dram,
};

/** @return a short human-readable name for a level. */
const char *memLevelName(MemLevel level);

/** Full configuration of the memory system. */
struct MemSystemConfig
{
    unsigned numCores = 8;
    unsigned coresPerSocket = 8;

    CacheGeometry l1i{32 * 1024, 4, 4};
    CacheGeometry l1d{32 * 1024, 8, 4};
    CacheGeometry l2{256 * 1024, 8, 8};
    CacheGeometry l3{8 * 1024 * 1024, 16, 30};  ///< per socket

    double dramLatency = 173.0;        ///< cycles (65 ns at 2.66 GHz)
    double dramTransferCycles = 21.3;  ///< 64 B at 8 GB/s, in cycles
    double remoteCacheLatency = 90.0;  ///< cross-socket cache hit
    double dirtyForwardLatency = 40.0; ///< extra cost to fetch an M copy
    double upgradeLatency = 20.0;      ///< S->M upgrade round trip

    unsigned numSockets() const { return (numCores + coresPerSocket - 1) / coresPerSocket; }
};

/** Aggregate event counters; snapshot-and-subtract for region deltas. */
struct MemStats
{
    uint64_t accesses = 0;
    uint64_t l1Hits = 0;
    uint64_t l2Hits = 0;
    uint64_t l3Hits = 0;
    uint64_t remoteHits = 0;
    uint64_t dramReads = 0;
    uint64_t dramWrites = 0;
    uint64_t invalidations = 0;
    uint64_t upgrades = 0;
    uint64_t llcMisses = 0;  ///< accesses leaving the requesting socket

    /** @return this - other, counter-wise. */
    MemStats delta(const MemStats &other) const;

    /** @return dramReads + dramWrites. */
    uint64_t dramAccesses() const { return dramReads + dramWrites; }

    void serialize(Serializer &s) const;
    void deserialize(Deserializer &d);
};

/** Timing outcome of one access. */
struct AccessResult
{
    double latency;   ///< cycles, including queueing
    MemLevel level;   ///< where the data came from
};

/**
 * The full memory hierarchy of a simulated machine.
 */
class MemSystem
{
  public:
    explicit MemSystem(const MemSystemConfig &config);

    /**
     * Perform a timed access.
     *
     * @param core requesting core id
     * @param addr byte address
     * @param is_write true for stores
     * @param now requesting core's local clock (cycles), used by the
     *            per-socket DRAM bandwidth model
     * @return latency and serving level
     */
    AccessResult access(unsigned core, uint64_t addr, bool is_write,
                        double now);

    /**
     * Functionally install a line on behalf of @p core, without any
     * timing or statistics side effects. Used by warmup replay. A
     * written line is installed Modified (other copies invalidated),
     * reconstructing coherence state as well as cache contents; an
     * llc_dirty line is installed clean privately but Modified in the
     * socket's L3, so its eventual eviction still writes memory.
     */
    void installFunctional(unsigned core, uint64_t line_addr,
                           bool written = false, bool llc_dirty = false);

    /** Drop all cached state and directory contents (cold machine). */
    void reset();

    /**
     * Rebase the DRAM channel clocks to zero and set the number of
     * cores actively sharing each socket's channel. Called at
     * barriers: core-local clocks restart per region, and in-flight
     * queueing has drained once every thread reaches the barrier.
     *
     * Each core sees an effective channel rate of (socket bandwidth /
     * active cores in the socket); this keeps the bandwidth model
     * consistent with per-core local clocks while still modelling the
     * aggregate 8 GB/s-per-socket wall of Table I.
     *
     * @param active_threads threads executing the upcoming region
     */
    void beginRegion(unsigned active_threads);

    /** @return cumulative statistics since construction or reset. */
    const MemStats &stats() const { return stats_; }

    const MemSystemConfig &config() const { return config_; }

    unsigned socketOf(unsigned core) const;

    /** @return occupancy of a core's L1-D (testing hook). */
    uint64_t l1Occupancy(unsigned core) const;
    /** @return occupancy of a core's L2 (testing hook). */
    uint64_t l2Occupancy(unsigned core) const;
    /** @return occupancy of a socket's L3 (testing hook). */
    uint64_t l3Occupancy(unsigned socket) const;

    /** @return MSI state of @p line in a core's L1-D (testing hook). */
    LineState l1State(unsigned core, uint64_t line_addr) const;

    /**
     * Check the directory against the caches (testing hook):
     *   - L1 within L2 within the own socket's L3, per core;
     *   - with no home map, only one socket's L3 holds lines and no
     *     way is flagged as shared;
     *   - a core-valid bit is set exactly when the line is in that
     *     core's L2;
     *   - each home socket mask equals the set of L3s holding the line,
     *     and a way not flagged as shared is the line's only L3 copy;
     *   - an owner holds the line Modified in its L2, with its bit set,
     *     a line has at most one owner, and the home entry of a line in
     *     two or more L3s names the owner's socket;
     *   - no home entry has an empty socket mask.
     *
     * @return a description of the first violation, or "" when all hold.
     */
    std::string checkInvariants() const;

    /** Directory footprint snapshot (bench/BASELINE hook). */
    struct DirFootprint
    {
        uint64_t lines = 0;      ///< distinct lines held by any L3
        double bytesPerLine = 0; ///< home map slot bytes / lines (0: no map)
        uint64_t wayBytes = 0;   ///< directory state in all L3 ways
    };
    DirFootprint dirFootprint() const;

  private:
    /** Home directory entry of a line held by at least one L3. */
    struct HomeEntry
    {
        CoreSet<kMaxSockets> sockets;  ///< sockets holding it in L3
        /**
         * While two or more sockets hold the line: the socket whose L3
         * way may record its owner, or -1. Owners only appear on lines
         * held by one socket, so this is set when a second socket joins
         * and cleared when that owner is downgraded or its socket's
         * copy goes; an owner lost to an L2 eviction may leave it stale.
         */
        int16_t ownerSocket = -1;
    };
    static_assert(kMaxCoresPerSocket <= 64,
                  "a socket's cores must fit DirectoryWay's sharers and owner");

    /** @return a core's bit in its socket's core-valid word. */
    unsigned
    bitInSocket(unsigned core) const
    {
        return core % config_.coresPerSocket;
    }

    /**
     * Note that a core of @p socket is about to touch memory. The
     * first socket to do so becomes the sole socket; the first core of
     * any other socket brings the home map to life.
     */
    void
    noteSocket(unsigned socket)
    {
        if (!homeLive_ && static_cast<int>(socket) != soleSocket_)
            [[unlikely]] admitSocket(socket);
    }

    /** noteSocket()'s cold path: claim the sole socket or build home_. */
    void admitSocket(unsigned socket);

    /** Remove a line from one core's L1+L2; @return true if dirty. */
    bool invalidateCore(unsigned core, uint64_t line);

    /**
     * Remove @p line from the cores of @p socket named in @p word.
     * @return true when any of the removed copies was dirty.
     */
    bool invalidateCores(unsigned socket, uint64_t word, uint64_t line);

    /**
     * Invalidate every copy except @p requester's; other sockets lose
     * their L3 copies too. @p way3 is the line's way in the requester's
     * L3, or -1; when it holds the line, the requester becomes owner.
     *
     * @return true when a copy in another socket was invalidated.
     */
    bool invalidateSharers(unsigned requester, uint64_t line, int way3,
                           double now);

    /**
     * Downgrade the line's Modified owner, if it has one, to Shared.
     * The requester of @p socket holds no private copy, so the owner
     * is another core, in this socket or in another holder of the line.
     *
     * @param way3 the line's way in the requester's L3, or -1
     * @param home home entry of the line, or null when not consulted
     * @return true when an owner was downgraded.
     */
    bool downgradeOwner(unsigned socket, uint64_t line, int way3,
                        HomeEntry *home);

    /**
     * Record that @p socket's L3 now holds @p line in @p way3, flagging
     * every holder's way when the line is in more than one socket.
     */
    void addHolder(unsigned socket, uint64_t line, int way3);

    /** Handle inclusive-L3 eviction: purge the line from the socket. */
    void handleL3Eviction(unsigned socket, const Eviction &ev, double now);

    /** Place a new line in @p socket's L3; @return its way. */
    int fillL3(unsigned socket, uint64_t line, double now);

    /** Insert into a core's L2, maintaining L1 inclusion on eviction. */
    void fillL2(unsigned core, uint64_t line, LineState state);

    /** Insert into a core's L1, writing back a dirty victim to L2. */
    void fillL1(unsigned core, uint64_t line, LineState state);

    /** Charge one DRAM transfer on a socket's channel. */
    double dramAccess(unsigned socket, double now, bool is_read);

    MemSystemConfig config_;
    std::vector<SetAssocCache> l1d_;   ///< per core
    std::vector<SetAssocCache> l2_;    ///< per core
    std::vector<DirectoryCache> l3_;   ///< per socket
    std::vector<double> dramFree_;     ///< per-core channel free time
    std::vector<double> dramShare_;    ///< per-socket cycles per transfer
    FlatMap<HomeEntry> home_;          ///< L3 holders, while homeLive_
    /** The one socket in use while !homeLive_; -1 before any access. */
    int soleSocket_ = -1;
    bool homeLive_ = false;  ///< a second socket is in use: home_ is kept
    MemStats stats_;
    bool functional_ = false;  ///< suppress timing/stats during warmup
};

} // namespace bp

#endif // BP_MEMSYS_MEM_SYSTEM_H
