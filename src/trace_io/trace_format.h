/**
 * @file
 * The `.bptrace` on-disk binary memory-trace format.
 *
 * A trace file is a recorded application: the full dynamic
 * micro-operation stream of every inter-barrier region, for every
 * thread, in a layout the replay side can seek into per region. It is
 * the external-workload counterpart of the artifact framing in
 * support/serialize.h and follows the same discipline — fixed-width
 * little-endian fields, magic/version header, checksums over every
 * byte, typed errors (TraceError) on every malformed input, never UB
 * or a partial result.
 *
 * File layout (all integers little-endian):
 *
 *   [header, 40 bytes]
 *     u32 magic          "BPTR" (0x52545042)
 *     u32 version        kTraceVersion (2); version 1 is still read
 *     u32 threadCount    in [1, kMaxCores]
 *     u32 reserved       must be 0
 *     u64 regionCount    patched on close
 *     u64 indexOffset    byte offset of the region index; patched on
 *                        close (an unfinalized file fails validation)
 *     u64 checksum       FNV-1a over the 32 header bytes above
 *   [records, 16 bytes each, grouped by region in region order]
 *     u64 addr           byte address (0 for Alu and Barrier)
 *     u32 bb             static basic block id (0 for Barrier)
 *     u16 tid            owning thread, < threadCount
 *     u8  kind           0 Alu, 1 Load, 2 Store, 3 Barrier
 *     u8  flags          must be 0 (reserved)
 *   [region index, 24 bytes per region, at indexOffset]
 *     u64 offset         absolute offset of the region's first record
 *     u64 count          record count including barrier markers
 *     u64 checksum       payload checksum over the region's raw
 *                        record bytes: WordLaneHash (two u64 lanes,
 *                        support/serialize.h) in v2, FNV-1a in v1
 *   [trailer, 8 bytes]
 *     u64 checksum       FNV-1a over the raw index bytes
 *
 * Within a region, records from different threads may interleave in
 * chunks (the writer flushes per-thread append buffers when they
 * fill), but each thread's own records appear in program order; the
 * region ends with exactly one Barrier marker per thread, in thread
 * order. Every byte of the file is covered by one of the three
 * checksums, so any corruption — header, payload, or index — is
 * detected with a typed error.
 *
 * See docs/trace_format.md for the normative byte-level spec.
 */

#ifndef BP_TRACE_IO_TRACE_FORMAT_H
#define BP_TRACE_IO_TRACE_FORMAT_H

#include <cstddef>
#include <cstdint>

#include "src/support/serialize.h"

namespace bp {

/**
 * Thrown on malformed trace input: truncated files, bad magic or
 * version, checksum mismatches, and record-level violations. Derives
 * from SerializeError so every existing malformed-persistent-data
 * path (the `bp` CLI's exit-1 handler, Experiment's artifact probes)
 * handles trace corruption the same way.
 */
class TraceError : public SerializeError
{
  public:
    using SerializeError::SerializeError;
};

/** "BPTR" as a little-endian u32. */
constexpr uint32_t kTraceMagic = 0x52545042u;

/**
 * Trace format version written; bump on any layout or checksum change.
 * Version 2 moved the payload checksum from bytewise FNV-1a to
 * WordLaneHash; the layout is unchanged, and version-1 files still
 * read (see tracePayloadChecksum).
 */
constexpr uint32_t kTraceVersion = 2;

/** Oldest trace version this build reads. */
constexpr uint32_t kTraceMinVersion = 1;

constexpr size_t kTraceHeaderBytes = 40;
constexpr size_t kTraceRecordBytes = 16;
constexpr size_t kTraceIndexEntryBytes = 24;
constexpr size_t kTraceTrailerBytes = 8;

/** Record kind byte. 0..2 mirror OpKind; 3 marks a thread's barrier. */
constexpr uint8_t kTraceKindAlu = 0;
constexpr uint8_t kTraceKindLoad = 1;
constexpr uint8_t kTraceKindStore = 2;
constexpr uint8_t kTraceKindBarrier = 3;

/** One decoded 16-byte trace record. */
struct TraceRecord
{
    uint64_t addr = 0;
    uint32_t bb = 0;
    uint16_t tid = 0;
    uint8_t kind = kTraceKindAlu;
    uint8_t flags = 0;
};

/** One decoded region-index entry. */
struct TraceRegionIndexEntry
{
    uint64_t offset = 0;    ///< absolute offset of the first record
    uint64_t count = 0;     ///< records including barrier markers
    uint64_t checksum = 0;  ///< tracePayloadChecksum of the records
};

/** The header's variable fields (magic and checksum are implied). */
struct TraceHeader
{
    uint32_t threadCount = 0;
    uint64_t regionCount = 0;
    uint64_t indexOffset = 0;
    /** Decoded version; encodeTraceHeader() always writes kTraceVersion. */
    uint32_t version = kTraceVersion;
};

/** Encode @p record into kTraceRecordBytes at @p out. */
inline void
encodeTraceRecord(uint8_t *out, const TraceRecord &record)
{
    leStore64(out, record.addr);
    leStore32(out + 8, record.bb);
    leStore16(out + 12, record.tid);
    out[14] = record.kind;
    out[15] = record.flags;
}

/** Decode kTraceRecordBytes at @p in (no validation; see TraceReader). */
inline TraceRecord
decodeTraceRecord(const uint8_t *in)
{
    TraceRecord record;
    record.addr = leLoad64(in);
    record.bb = leLoad32(in + 8);
    record.tid = leLoad16(in + 12);
    record.kind = in[14];
    record.flags = in[15];
    return record;
}

/**
 * The payload checksum of @p size record bytes in a version-@p version
 * trace: WordLaneHash from version 2 on, bytewise FNV-1a in version 1.
 * The one place the reader picks it.
 */
inline uint64_t
tracePayloadChecksum(uint32_t version, const uint8_t *bytes, size_t size)
{
    if (version == 1)
        return fnv1aUpdate(kFnv1aBasis, bytes, size);
    WordLaneHash hash;
    hash.update(bytes, size);
    return hash.digest();
}

/** Encode a finalized header (computes the header checksum). */
void encodeTraceHeader(uint8_t *out, const TraceHeader &header);

/**
 * Decode and validate kTraceHeaderBytes at @p in: magic, version (in
 * [kTraceMinVersion, kTraceVersion]), checksum, reserved field, and
 * thread count range. Throws TraceError naming the failing check;
 * @p path labels the message.
 */
TraceHeader decodeTraceHeader(const uint8_t *in, const std::string &path);

} // namespace bp

#endif // BP_TRACE_IO_TRACE_FORMAT_H
