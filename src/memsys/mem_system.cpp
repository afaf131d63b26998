#include "src/memsys/mem_system.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "src/support/logging.h"
#include "src/support/serialize.h"
#include "src/trace/micro_op.h"

namespace bp {

const char *
memLevelName(MemLevel level)
{
    switch (level) {
      case MemLevel::L1: return "L1";
      case MemLevel::L2: return "L2";
      case MemLevel::L3: return "L3";
      case MemLevel::RemoteCache: return "remote";
      case MemLevel::Dram: return "dram";
    }
    return "?";
}

MemStats
MemStats::delta(const MemStats &other) const
{
    MemStats d;
    d.accesses = accesses - other.accesses;
    d.l1Hits = l1Hits - other.l1Hits;
    d.l2Hits = l2Hits - other.l2Hits;
    d.l3Hits = l3Hits - other.l3Hits;
    d.remoteHits = remoteHits - other.remoteHits;
    d.dramReads = dramReads - other.dramReads;
    d.dramWrites = dramWrites - other.dramWrites;
    d.invalidations = invalidations - other.invalidations;
    d.upgrades = upgrades - other.upgrades;
    d.llcMisses = llcMisses - other.llcMisses;
    return d;
}

void
MemStats::serialize(Serializer &s) const
{
    s.u64(accesses);
    s.u64(l1Hits);
    s.u64(l2Hits);
    s.u64(l3Hits);
    s.u64(remoteHits);
    s.u64(dramReads);
    s.u64(dramWrites);
    s.u64(invalidations);
    s.u64(upgrades);
    s.u64(llcMisses);
}

void
MemStats::deserialize(Deserializer &d)
{
    accesses = d.u64();
    l1Hits = d.u64();
    l2Hits = d.u64();
    l3Hits = d.u64();
    remoteHits = d.u64();
    dramReads = d.u64();
    dramWrites = d.u64();
    invalidations = d.u64();
    upgrades = d.u64();
    llcMisses = d.u64();
}

MemSystem::MemSystem(const MemSystemConfig &config)
    : config_(config)
{
    if (config_.numCores < 1 || config_.numCores > kMaxCores)
        fatal("core count must be in [1, %u], got %u", kMaxCores,
              config_.numCores);
    BP_ASSERT(config_.coresPerSocket >= 1, "need at least one core/socket");
    // Every core's bit must fit its socket's 64-bit core-valid word in
    // the L3: sockets are capped at kMaxCoresPerSocket cores, except
    // that a single wide socket is fine as long as the whole machine
    // fits one word anyway.
    if (std::min(config_.coresPerSocket, config_.numCores) >
        kMaxCoresPerSocket) {
        fatal("sockets are limited to %u cores (got %u cores/socket on a "
              "%u-core machine); split the machine into more sockets",
              kMaxCoresPerSocket, config_.coresPerSocket, config_.numCores);
    }
    if (config_.numSockets() > kMaxSockets)
        fatal("socket count %u exceeds the directory's %u-socket capacity; "
              "use at least %u cores per socket",
              config_.numSockets(), kMaxSockets,
              (config_.numCores + kMaxSockets - 1) / kMaxSockets);
    for (unsigned c = 0; c < config_.numCores; ++c) {
        l1d_.emplace_back(config_.l1d);
        l2_.emplace_back(config_.l2);
    }
    for (unsigned s = 0; s < config_.numSockets(); ++s)
        l3_.emplace_back(config_.l3);
    dramFree_.assign(config_.numCores, 0.0);
    dramShare_.assign(config_.numSockets(), config_.dramTransferCycles);
}

unsigned
MemSystem::socketOf(unsigned core) const
{
    return core / config_.coresPerSocket;
}

double
MemSystem::dramAccess(unsigned core, double now, bool is_read)
{
    if (functional_)
        return 0.0;
    if (!is_read) {
        // Writebacks are buffered off the critical path by the memory
        // controller: they are counted (APKI) but charge no latency
        // and no channel occupancy to the evicting core.
        ++stats_.dramWrites;
        return 0.0;
    }
    ++stats_.dramReads;
    // Per-core slice of the socket channel: each transfer occupies
    // (transfer time x active cores) on this core's private view of
    // the channel, so aggregate throughput matches the socket's
    // bandwidth while timing stays consistent with local clocks.
    const double start = std::max(now, dramFree_[core]);
    dramFree_[core] = start + dramShare_[socketOf(core)];
    return config_.dramLatency + (start - now);
}

void
MemSystem::admitSocket(unsigned socket)
{
    if (soleSocket_ < 0) {
        soleSocket_ = static_cast<int>(socket);
        return;
    }
    // A second socket arrives. Until now no line had another holder,
    // so no way is flagged as shared and no home entry would name an
    // owner: each line of the sole socket's L3 has that socket alone
    // in its mask, and that is the whole map.
    const DirectoryCache &l3 = l3_[soleSocket_];
    home_.reserve(l3.occupancy());
    l3.forEachLine([&](const DirectoryWay &way) {
        home_.insert(way.tag).first->sockets.set(
            static_cast<unsigned>(soleSocket_));
    });
    homeLive_ = true;
}

bool
MemSystem::invalidateCore(unsigned core, uint64_t line)
{
    const bool dirty_l1 = l1d_[core].invalidate(line) == LineState::Modified;
    const bool dirty_l2 = l2_[core].invalidate(line) == LineState::Modified;
    return dirty_l1 || dirty_l2;
}

bool
MemSystem::invalidateCores(unsigned socket, uint64_t word, uint64_t line)
{
    bool dirty = false;
    while (word) {
        const unsigned bit = static_cast<unsigned>(std::countr_zero(word));
        word &= word - 1;
        dirty |= invalidateCore(socket * config_.coresPerSocket + bit, line);
        if (!functional_)
            ++stats_.invalidations;
    }
    return dirty;
}

bool
MemSystem::downgradeOwner(unsigned socket, uint64_t line, int way3,
                          HomeEntry *home)
{
    const auto downgrade = [&](unsigned owner_socket, DirectoryWay &way) {
        const unsigned owner =
            owner_socket * config_.coresPerSocket + way.owner;
        const int way1 = l1d_[owner].lookup(line);
        if (way1 >= 0)
            l1d_[owner].at(line, way1).state = LineState::Shared;
        const int way2 = l2_[owner].lookup(line);
        BP_ASSERT(way2 >= 0, "owner lost its L2 copy");
        l2_[owner].at(line, way2).state = LineState::Shared;
        // The dirty data moves into the owner socket's L3 (cache-to-
        // cache forwarding); it reaches memory only on L3 eviction.
        way.state = LineState::Modified;
        way.owned = false;
        if (home)
            home->ownerSocket = -1;
    };

    if (way3 >= 0 && l3_[socket].at(line, way3).owned) {
        downgrade(socket, l3_[socket].at(line, way3));
        return true;
    }
    if (!home)
        return false;
    // A line in one other socket may be owned there; a line in several
    // names the owner's socket in its home entry.
    const int candidate = home->sockets.count() == 1
        ? home->sockets.firstSet() : home->ownerSocket;
    if (candidate < 0 || static_cast<unsigned>(candidate) == socket)
        return false;
    DirectoryCache &l3 = l3_[candidate];
    const int way = l3.lookup(line);
    BP_ASSERT(way >= 0, "home entry names an L3 without the line");
    if (!l3.at(line, way).owned)
        return false;
    downgrade(static_cast<unsigned>(candidate), l3.at(line, way));
    return true;
}

bool
MemSystem::invalidateSharers(unsigned requester, uint64_t line, int way3,
                             double now)
{
    const unsigned my_socket = socketOf(requester);
    const unsigned my_bit = bitInSocket(requester);
    bool remote = false;

    const auto strip = [&](unsigned socket) {
        if (socket == my_socket) {
            DirectoryWay &way = l3_[socket].at(line, way3);
            const uint64_t mine = way.sharers & (uint64_t{1} << my_bit);
            invalidateCores(socket, way.sharers & ~mine, line);
            way.sharers = mine;
            way.owned = true;
            way.owner = static_cast<uint8_t>(my_bit);
            way.shared = false;
            return;
        }
        DirectoryCache &l3 = l3_[socket];
        const int way = l3.lookup(line);
        BP_ASSERT(way >= 0, "home entry names an L3 without the line");
        DirectoryWay &victim = l3.at(line, way);
        // A dirty private copy is forwarded to the requester (whose own
        // copy becomes Modified and will be written back on eviction),
        // so only a dirty L3 copy generates memory traffic here.
        invalidateCores(socket, victim.sharers, line);
        if (victim.state == LineState::Modified)
            dramAccess(socket * config_.coresPerSocket, now, false);
        victim.state = LineState::Invalid;
        remote = true;
    };

    // Sockets ascending, then each core-valid word low bit first: the
    // holders are visited in ascending global core order. A way not
    // flagged as shared is the line's only L3 copy.
    if (way3 >= 0 && !l3_[my_socket].at(line, way3).shared) {
        strip(my_socket);
        return false;
    }
    HomeEntry *home = homeLive_ ? home_.find(line) : nullptr;
    if (!home)
        return false;
    home->sockets.forEachSetBit(strip);
    home->sockets.reset();
    if (way3 >= 0)
        home->sockets.set(my_socket);
    home->ownerSocket = -1;
    return remote;
}

void
MemSystem::addHolder(unsigned socket, uint64_t line, int way3)
{
    if (!homeLive_)
        return;  // one socket's L3 is the whole directory
    HomeEntry &home = *home_.insert(line).first;
    if (home.sockets.any()) {
        // Two or more holders: every holder's way is flagged. Holders
        // beyond the first were flagged when they joined.
        l3_[socket].at(line, way3).shared = true;
        if (home.sockets.count() == 1) {
            const int other = home.sockets.firstSet();
            const int way = l3_[other].lookup(line);
            BP_ASSERT(way >= 0, "home entry names an L3 without the line");
            DirectoryWay &first = l3_[other].at(line, way);
            first.shared = true;
            home.ownerSocket = static_cast<int16_t>(first.owned ? other : -1);
        }
    }
    home.sockets.set(socket);
}

void
MemSystem::handleL3Eviction(unsigned socket, const Eviction &ev, double now)
{
    // The victim's core-valid word names every core of the socket that
    // must be back-invalidated.
    const bool dirty =
        invalidateCores(socket, ev.sharers, ev.line) || ev.dirty;
    if (homeLive_) {
        HomeEntry *home = home_.find(ev.line);
        BP_ASSERT(home, "L3 victim has no home entry");
        home->sockets.clear(socket);
        if (home->ownerSocket == static_cast<int16_t>(socket))
            home->ownerSocket = -1;
        if (home->sockets.none())
            home_.erase(ev.line);
    }
    if (dirty)
        dramAccess(socket * config_.coresPerSocket, now, false);
}

int
MemSystem::fillL3(unsigned socket, uint64_t line, double now)
{
    int way = -1;
    const auto ev = l3_[socket].insert(line, LineState::Shared, &way);
    if (ev)
        handleL3Eviction(socket, *ev, now);
    addHolder(socket, line, way);
    return way;
}

void
MemSystem::fillL2(unsigned core, uint64_t line, LineState state)
{
    const auto ev = l2_[core].insert(line, state);
    if (!ev)
        return;

    // Inclusion: the victim must leave this core's L1 as well, and its
    // socket's L3 still holds it, with this core's directory bits.
    const bool dirty_l1 =
        l1d_[core].invalidate(ev->line) == LineState::Modified;
    DirectoryCache &l3 = l3_[socketOf(core)];
    const int way3 = l3.lookup(ev->line);
    BP_ASSERT(way3 >= 0, "inclusive L3 lost an L2 victim");
    DirectoryWay &way = l3.at(ev->line, way3);
    const unsigned bit = bitInSocket(core);
    way.sharers &= ~(uint64_t{1} << bit);
    if (way.owned && way.owner == bit)
        way.owned = false;
    if (ev->dirty || dirty_l1)
        way.state = LineState::Modified;
}

void
MemSystem::fillL1(unsigned core, uint64_t line, LineState state)
{
    const auto ev = l1d_[core].insert(line, state);
    if (ev && ev->dirty) {
        // The L2 is inclusive of the L1, so the victim must be there.
        const int way = l2_[core].lookup(ev->line);
        BP_ASSERT(way >= 0, "L1 victim missing from inclusive L2");
        l2_[core].at(ev->line, way).state = LineState::Modified;
    }
}

/** Mark a line Modified in a core's L2, where inclusion says it is. */
static void
setL2Modified(SetAssocCache &l2, uint64_t line)
{
    const int way = l2.lookup(line);
    BP_ASSERT(way >= 0, "L1 line missing from inclusive L2");
    l2.at(line, way).state = LineState::Modified;
}

AccessResult
MemSystem::access(unsigned core, uint64_t addr, bool is_write, double now)
{
    BP_ASSERT(core < config_.numCores, "core id out of range");
    const uint64_t line = lineOf(addr);
    const unsigned socket = socketOf(core);
    DirectoryCache &l3 = l3_[socket];
    noteSocket(socket);
    ++stats_.accesses;

    // --- L1 ---
    int way = l1d_[core].lookup(line);
    if (way >= 0) {
        l1d_[core].touch(line, way);
        CacheWay &l1_way = l1d_[core].at(line, way);
        if (!is_write || l1_way.state == LineState::Modified) {
            ++stats_.l1Hits;
            return {static_cast<double>(config_.l1d.latency), MemLevel::L1};
        }
        // Store to a Shared line: upgrade to Modified.
        ++stats_.upgrades;
        const bool remote =
            invalidateSharers(core, line, l3.lookup(line), now);
        l1_way.state = LineState::Modified;
        setL2Modified(l2_[core], line);
        ++stats_.l1Hits;
        const double latency = config_.l1d.latency + config_.upgradeLatency +
            (remote ? config_.remoteCacheLatency : 0.0);
        return {latency, MemLevel::L1};
    }

    // --- L2 ---
    way = l2_[core].lookup(line);
    if (way >= 0) {
        l2_[core].touch(line, way);
        LineState state = l2_[core].at(line, way).state;
        double extra = 0.0;
        if (is_write && state != LineState::Modified) {
            ++stats_.upgrades;
            const bool remote =
                invalidateSharers(core, line, l3.lookup(line), now);
            l2_[core].at(line, way).state = LineState::Modified;
            state = LineState::Modified;
            extra = config_.upgradeLatency +
                (remote ? config_.remoteCacheLatency : 0.0);
        }
        fillL1(core, line, state);
        ++stats_.l2Hits;
        return {config_.l2.latency + extra, MemLevel::L2};
    }

    // --- beyond the private levels ---
    // The requester holds no private copy, so it is neither a sharer
    // nor the owner. The local L3 way names this socket's holders; the
    // home mask is needed only if another socket may hold the line.
    int way3 = l3.lookup(line);
    HomeEntry *home = homeLive_ && (way3 < 0 || l3.at(line, way3).shared)
        ? home_.find(line) : nullptr;
    double extra = 0.0;

    if (is_write) {
        if ((way3 >= 0 && l3.at(line, way3).sharers != 0) ||
            (home && home->sockets.anyOtherThan(socket))) {
            const bool remote = invalidateSharers(core, line, way3, now);
            extra += config_.upgradeLatency +
                (remote ? config_.remoteCacheLatency : 0.0);
        }
    } else if (downgradeOwner(socket, line, way3, home)) {
        extra += config_.dirtyForwardLatency;
    }

    // --- local L3 ---
    double base_latency = 0.0;
    MemLevel level;
    if (way3 >= 0) {
        l3.touch(line, way3);
        ++stats_.l3Hits;
        base_latency = config_.l3.latency;
        level = MemLevel::L3;
    } else {
        ++stats_.llcMisses;
        if (home && home->sockets.anyOtherThan(socket)) {
            ++stats_.remoteHits;
            base_latency = config_.remoteCacheLatency;
            level = MemLevel::RemoteCache;
        } else {
            base_latency = dramAccess(core, now, true);
            level = MemLevel::Dram;
        }
        way3 = fillL3(socket, line, now);
    }

    // --- fill the private levels ---
    const LineState priv_state =
        is_write ? LineState::Modified : LineState::Shared;
    fillL2(core, line, priv_state);
    fillL1(core, line, priv_state);

    DirectoryWay &dir = l3.at(line, way3);
    dir.sharers |= uint64_t{1} << bitInSocket(core);
    if (is_write) {
        dir.owned = true;
        dir.owner = static_cast<uint8_t>(bitInSocket(core));
    }

    return {base_latency + extra, level};
}

void
MemSystem::installFunctional(unsigned core, uint64_t line_addr,
                             bool written, bool llc_dirty)
{
    functional_ = true;
    const uint64_t line = line_addr;
    const unsigned socket = socketOf(core);
    noteSocket(socket);
    const LineState state =
        written ? LineState::Modified : LineState::Shared;
    DirectoryCache &l3 = l3_[socket];
    int way3 = l3.lookup(line);

    if (written)
        invalidateSharers(core, line, way3, 0.0);

    const int way1 = l1d_[core].lookup(line);
    if (way1 < 0) {
        if (way3 < 0)
            way3 = fillL3(socket, line, 0.0);
        else
            l3.touch(line, way3);
        fillL2(core, line, state);
        fillL1(core, line, state);
        DirectoryWay &dir = l3.at(line, way3);
        dir.sharers |= uint64_t{1} << bitInSocket(core);
        if (written) {
            dir.owned = true;
            dir.owner = static_cast<uint8_t>(bitInSocket(core));
        }
        if (llc_dirty)
            dir.state = LineState::Modified;
    } else {
        // Already private here: inclusion puts it in this socket's L3
        // with this core's bit set, and invalidateSharers made a
        // writer the owner.
        if (written) {
            l1d_[core].at(line, way1).state = LineState::Modified;
            setL2Modified(l2_[core], line);
        }
        if (llc_dirty)
            l3.at(line, way3).state = LineState::Modified;
    }
    functional_ = false;
}

void
MemSystem::beginRegion(unsigned active_threads)
{
    dramFree_.assign(config_.numCores, 0.0);
    dramShare_.assign(config_.numSockets(), config_.dramTransferCycles);
    for (unsigned s = 0; s < config_.numSockets(); ++s) {
        unsigned active = 0;
        for (unsigned c = 0; c < config_.numCores; ++c) {
            if (c < active_threads && socketOf(c) == s)
                ++active;
        }
        dramShare_[s] = config_.dramTransferCycles * std::max(1u, active);
    }
}

void
MemSystem::reset()
{
    for (auto &cache : l1d_)
        cache.reset();
    for (auto &cache : l2_)
        cache.reset();
    for (auto &cache : l3_)
        cache.reset();
    if (homeLive_)
        home_.clear();
    homeLive_ = false;
    soleSocket_ = -1;
    dramFree_.assign(config_.numCores, 0.0);
    dramShare_.assign(config_.numSockets(), config_.dramTransferCycles);
    stats_ = MemStats();
}

uint64_t
MemSystem::l1Occupancy(unsigned core) const
{
    return l1d_.at(core).occupancy();
}

uint64_t
MemSystem::l2Occupancy(unsigned core) const
{
    return l2_.at(core).occupancy();
}

uint64_t
MemSystem::l3Occupancy(unsigned socket) const
{
    return l3_.at(socket).occupancy();
}

LineState
MemSystem::l1State(unsigned core, uint64_t line_addr) const
{
    return l1d_.at(core).state(line_addr);
}

std::string
MemSystem::checkInvariants() const
{
    std::string error;
    const auto fail = [&](const char *what, uint64_t line, unsigned who) {
        if (!error.empty())
            return;
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s (line %llu, core/socket %u)",
                      what, static_cast<unsigned long long>(line), who);
        error = buf;
    };

    for (unsigned c = 0; c < config_.numCores; ++c) {
        const DirectoryCache &l3 = l3_[socketOf(c)];
        l1d_[c].forEachLine([&](const CacheWay &way) {
            if (!l2_[c].contains(way.tag))
                fail("L1 line missing from L2", way.tag, c);
        });
        l2_[c].forEachLine([&](const CacheWay &way) {
            const int way3 = l3.lookup(way.tag);
            if (way3 < 0)
                fail("L2 line missing from own L3", way.tag, c);
            else if (!(l3.at(way.tag, way3).sharers >> bitInSocket(c) & 1))
                fail("L2 line without its core-valid bit", way.tag, c);
        });
    }

    uint64_t l3_lines = 0;
    FlatMap<unsigned> owners;
    for (unsigned s = 0; s < l3_.size(); ++s) {
        l3_[s].forEachLine([&](const DirectoryWay &way) {
            ++l3_lines;
            const HomeEntry *home = home_.find(way.tag);
            if (!homeLive_ && static_cast<int>(s) != soleSocket_)
                fail("L3 line outside the sole socket", way.tag, s);
            else if (!homeLive_ && (home || way.shared))
                fail("single-socket line with home state", way.tag, s);
            else if (homeLive_ && (!home || !home->sockets.test(s)))
                fail("L3 line missing from its home mask", way.tag, s);
            else if (home && !way.shared &&
                     home->sockets != CoreSet<kMaxSockets>::single(s))
                fail("unflagged L3 line held by another socket", way.tag, s);
            for (uint64_t word = way.sharers; word; word &= word - 1) {
                const unsigned core = s * config_.coresPerSocket +
                    static_cast<unsigned>(std::countr_zero(word));
                if (core >= config_.numCores || !l2_[core].contains(way.tag))
                    fail("core-valid bit without an L2 copy", way.tag, core);
            }
            if (!way.owned)
                return;
            const unsigned owner = s * config_.coresPerSocket + way.owner;
            if (!(way.sharers >> way.owner & 1) ||
                l2_[owner].state(way.tag) != LineState::Modified)
                fail("owner's L2 copy is not Modified", way.tag, owner);
            if (++*owners.insert(way.tag).first > 1)
                fail("line with two owners", way.tag, owner);
            if (home && home->sockets.count() > 1 &&
                home->ownerSocket != static_cast<int16_t>(s))
                fail("home entry does not name the owner's socket", way.tag,
                     owner);
        });
    }

    uint64_t home_bits = 0;
    home_.forEach([&](uint64_t line, const HomeEntry &home) {
        home_bits += home.sockets.count();
        if (home.sockets.none())
            fail("home entry with an empty socket mask", line, 0);
        else if (home.ownerSocket >= 0 &&
                 !home.sockets.test(static_cast<unsigned>(home.ownerSocket)))
            fail("home entry names a non-holder as owner", line, 0);
    });
    if (home_bits != (homeLive_ ? l3_lines : 0))
        fail("home masks name L3s without the line", home_bits, 0);
    return error;
}

MemSystem::DirFootprint
MemSystem::dirFootprint() const
{
    DirFootprint fp;
    if (homeLive_) {
        fp.lines = home_.size();
        if (fp.lines > 0)
            fp.bytesPerLine = static_cast<double>(home_.bytes()) / fp.lines;
    } else if (soleSocket_ >= 0) {
        fp.lines = l3_[soleSocket_].occupancy();
    }
    for (const DirectoryCache &l3 : l3_) {
        fp.wayBytes += l3.geometry().numLines() *
            (sizeof(DirectoryWay) - sizeof(CacheWay));
    }
    return fp;
}

} // namespace bp
