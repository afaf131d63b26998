/**
 * @file
 * TraceReader: validated, zero-copy access to a `.bptrace` file.
 *
 * The file is mapped read-only (mmap) once; regions materialize
 * straight from the mapping with no intermediate read buffers, so the
 * OS page cache is the only memory the trace occupies and a
 * million-region file costs the reader O(regions) index entries, not
 * O(records).
 *
 * Validation happens in two layers, both surfacing as TraceError:
 *
 *  - open time: header magic/version/checksum/thread range, exact
 *    file-size accounting (the index and trailer must end the file to
 *    the byte), the index trailer checksum, and index structure
 *    (contiguous, monotonically increasing regions that tile the
 *    record section exactly). Truncating the file at *any* byte fails
 *    here, because the size equation can no longer hold.
 *  - region access: the region's payload checksum (WordLaneHash, or
 *    FNV-1a in a version-1 file; any flipped record byte is caught),
 *    then record structure — known kind, tid in range, zero flags,
 *    barrier markers exactly once per thread as each thread's final
 *    record.
 *
 * readRegion() is const and genuinely so — any number of threads may
 * materialize any mix of regions concurrently, which is what lets
 * TraceWorkload plug into the parallel profiling pipeline unchanged.
 */

#ifndef BP_TRACE_IO_TRACE_READER_H
#define BP_TRACE_IO_TRACE_READER_H

#include <string>
#include <vector>

#include "src/trace/region_trace.h"
#include "src/trace_io/trace_format.h"

namespace bp {

class TraceReader
{
  public:
    /** Map and validate @p path; throws TraceError on any failure. */
    explicit TraceReader(const std::string &path);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    const std::string &path() const { return path_; }
    unsigned threadCount() const { return header_.threadCount; }
    uint64_t regionCount() const { return header_.regionCount; }
    /** Total records in the file, barrier markers included. */
    uint64_t recordCount() const { return recordCount_; }
    /** Total micro-ops (records minus barrier markers). */
    uint64_t opCount() const
    {
        return recordCount_ - regionCount() * threadCount();
    }
    uint64_t fileBytes() const { return size_; }

    /**
     * Content identity of the trace: an FNV-1a hash over the header
     * and the full region index. Because every region's payload
     * checksum is part of the index, any change to any byte of the
     * file changes this value — it is what WorkloadSpec::hash() folds
     * in so artifacts cache against the trace *content*, not its
     * path. O(regions) to compute, done once at open.
     */
    uint64_t contentHash() const { return contentHash_; }

    /**
     * Validate and materialize region @p index as a RegionTrace
     * (per-thread streams in recorded program order, barrier markers
     * stripped). Concurrently callable. Throws TraceError on any
     * payload corruption or record-level violation.
     */
    RegionTrace readRegion(uint64_t index) const;

    /** readRegion()'s validation only — no RegionTrace is built. */
    void verifyRegion(uint64_t index) const;

    /** verifyRegion() over every region (the `bp ingest --verify`
     *  full-file integrity scan). */
    void verifyAll() const;

  private:
    /**
     * Shared validation scan: checksum + structural checks, tallying
     * per-thread op counts into @p ops_per_thread when non-null (the
     * exact reserve sizes readRegion() fills against).
     */
    void scanRegion(uint64_t index,
                    std::vector<uint64_t> *ops_per_thread) const;

    /** Throw "'path' trace region N record R" + @p what. */
    [[noreturn, gnu::cold]] void
    recordError(uint64_t index, uint64_t record,
                const std::string &what) const;

    std::string path_;
    const uint8_t *data_ = nullptr;  ///< the whole mapped file
    uint64_t size_ = 0;
    TraceHeader header_;
    std::vector<TraceRegionIndexEntry> index_;
    uint64_t recordCount_ = 0;
    uint64_t contentHash_ = 0;
};

} // namespace bp

#endif // BP_TRACE_IO_TRACE_READER_H
