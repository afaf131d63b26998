/**
 * @file
 * Versioned binary (de)serialization for on-disk artifacts.
 *
 * The byte format is endian-stable (everything is written as
 * little-endian byte sequences regardless of host order), integers
 * are fixed-width, doubles travel as their IEEE-754 bit image (so a
 * save/load round trip is bit-exact), and variable-length data is
 * length-prefixed. Files are framed with a magic/version/kind header
 * plus an FNV-1a checksum of the payload; every read is
 * bounds-checked. Malformed input surfaces as SerializeError — never
 * as undefined behaviour or a partial struct.
 */

#ifndef BP_SUPPORT_SERIALIZE_H
#define BP_SUPPORT_SERIALIZE_H

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/support/logging.h"

namespace bp {

/** Thrown on truncated, corrupted, or mismatched artifact data. */
class SerializeError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** On-disk artifact format version; bump on any layout change. */
constexpr uint32_t kArtifactVersion = 5;

/** Append-only little-endian byte sink. */
class Serializer
{
  public:
    void u8(uint8_t v);
    void u32(uint32_t v);
    void u64(uint64_t v);
    void i8(int8_t v);
    /** Bit-exact: writes the IEEE-754 image of @p v. */
    void f64(double v);
    void boolean(bool v);
    /** Length-prefixed byte string. */
    void str(const std::string &v);
    /** Element count prefix (u64). */
    void size(size_t n);

    void u32vec(const std::vector<unsigned> &v);
    void u64vec(const std::vector<uint64_t> &v);
    void f64vec(const std::vector<double> &v);

    const std::vector<uint8_t> &buffer() const { return buffer_; }

  private:
    std::vector<uint8_t> buffer_;
};

/** Bounds-checked reader over a byte buffer; throws SerializeError. */
class Deserializer
{
  public:
    explicit Deserializer(std::vector<uint8_t> bytes);

    uint8_t u8();
    uint32_t u32();
    uint64_t u64();
    int8_t i8();
    double f64();
    bool boolean();
    std::string str();

    /**
     * Read an element count and sanity-check it against the bytes
     * actually remaining (>= @p min_elem_bytes each), so a corrupted
     * length cannot drive a huge allocation.
     */
    size_t size(size_t min_elem_bytes = 1);

    std::vector<unsigned> u32vec();
    std::vector<uint64_t> u64vec();
    std::vector<double> f64vec();

    size_t remaining() const { return bytes_.size() - pos_; }

    /** Throw unless every byte has been consumed. */
    void expectEnd() const;

  private:
    const uint8_t *need(size_t n);

    std::vector<uint8_t> bytes_;
    size_t pos_ = 0;
};

// Little-endian load/store helpers for fixed-width binary fields
// (.bptrace records, WordLaneHash words).

inline void
leStore16(uint8_t *out, uint16_t v)
{
    for (unsigned b = 0; b < 2; ++b)
        out[b] = static_cast<uint8_t>(v >> (8 * b));
}

inline void
leStore32(uint8_t *out, uint32_t v)
{
    for (unsigned b = 0; b < 4; ++b)
        out[b] = static_cast<uint8_t>(v >> (8 * b));
}

inline void
leStore64(uint8_t *out, uint64_t v)
{
    for (unsigned b = 0; b < 8; ++b)
        out[b] = static_cast<uint8_t>(v >> (8 * b));
}

inline uint16_t
leLoad16(const uint8_t *in)
{
    uint16_t v = 0;
    for (unsigned b = 0; b < 2; ++b)
        v = static_cast<uint16_t>(v | in[b] << (8 * b));
    return v;
}

inline uint32_t
leLoad32(const uint8_t *in)
{
    uint32_t v = 0;
    for (unsigned b = 0; b < 4; ++b)
        v |= static_cast<uint32_t>(in[b]) << (8 * b);
    return v;
}

inline uint64_t
leLoad64(const uint8_t *in)
{
    uint64_t v = 0;
    for (unsigned b = 0; b < 8; ++b)
        v |= static_cast<uint64_t>(in[b]) << (8 * b);
    return v;
}

/** 64-bit FNV-1a offset basis, for incremental checksumming. */
constexpr uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/**
 * Continue a 64-bit FNV-1a hash over @p size more bytes: the checksum
 * of artifacts, of .bptrace headers and indexes, and of v1 .bptrace
 * payloads (v2 payloads use WordLaneHash below).
 */
inline uint64_t
fnv1aUpdate(uint64_t hash, const uint8_t *data, size_t size)
{
    for (size_t i = 0; i < size; ++i)
        hash = (hash ^ data[i]) * 0x100000001b3ull;
    return hash;
}

/** 64-bit FNV-1a hash (the artifact payload checksum). */
uint64_t fnv1aHash(const uint8_t *data, size_t size);

/**
 * Word-lane checksum over 16-byte blocks: the .bptrace v2 payload
 * checksum (docs/trace_format.md, "Checksums"). Each block is two
 * little-endian u64 words; word 0 feeds lane 0 and word 1 feeds lane
 * 1, one step per word:
 *
 *   h = (h ^ w) * P;  h ^= h >> 32;
 *
 * The lanes never read each other, so their multiply chains overlap.
 * The xor-shift folds each product's high half back down: under a
 * plain (h ^ w) * P, a flip of bit 63 survives only as bit 63, and a
 * second flip there in the lane's next word cancels it. update() takes
 * whole blocks, any number per call, so a writer can feed records as
 * it flushes them.
 */
class WordLaneHash
{
  public:
    static constexpr size_t kBlockBytes = 16;

    void
    update(const uint8_t *data, size_t size)
    {
        BP_ASSERT(size % kBlockBytes == 0,
                  "WordLaneHash takes whole 16-byte blocks");
        uint64_t h0 = lane0_, h1 = lane1_;
        for (const uint8_t *end = data + size; data != end;
             data += kBlockBytes) {
            h0 = step(h0, leLoad64(data), kPrime0);
            h1 = step(h1, leLoad64(data + 8), kPrime1);
        }
        lane0_ = h0;
        lane1_ = h1;
    }

    /** The checksum of every block so far: lane0 ^ rotl(lane1, 32). */
    uint64_t digest() const { return lane0_ ^ std::rotl(lane1_, 32); }

  private:
    static constexpr uint64_t kPrime0 = 0x9e3779b97f4a7c15ull;
    static constexpr uint64_t kPrime1 = 0xc2b2ae3d27d4eb4full;

    static uint64_t
    step(uint64_t h, uint64_t w, uint64_t prime)
    {
        h = (h ^ w) * prime;
        return h ^ (h >> 32);
    }

    uint64_t lane0_ = kFnv1aBasis;
    uint64_t lane1_ = std::rotl(kFnv1aBasis, 32);
};

/** @return true when @p path names a readable file (artifact probe). */
bool fileExists(const std::string &path);

/**
 * Frame @p payload with the artifact header (magic, version, kind,
 * payload length, checksum) and publish it at @p path: written to
 * `<path>.tmp.<pid>.<n>` in the same directory, then renamed over
 * @p path, so readers never see a partial file. Throws SerializeError
 * on any I/O failure, leaving a previous @p path untouched and no
 * temporary behind. There is no fsync: the rename orders the publish
 * for other processes, not against a crash of the machine.
 */
void writeArtifactFile(const std::string &path, uint32_t kind,
                       const Serializer &payload);

/**
 * Read @p path, validate the header against @p kind and the checksum,
 * and return a Deserializer positioned at the start of the payload.
 */
Deserializer readArtifactFile(const std::string &path, uint32_t kind);

} // namespace bp

#endif // BP_SUPPORT_SERIALIZE_H
