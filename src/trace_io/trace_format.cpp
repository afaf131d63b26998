#include "src/trace_io/trace_format.h"

#include "src/support/core_set.h"

namespace bp {

void
encodeTraceHeader(uint8_t *out, const TraceHeader &header)
{
    leStore32(out, kTraceMagic);
    leStore32(out + 4, kTraceVersion);
    leStore32(out + 8, header.threadCount);
    leStore32(out + 12, 0);  // reserved
    leStore64(out + 16, header.regionCount);
    leStore64(out + 24, header.indexOffset);
    leStore64(out + 32, fnv1aUpdate(kFnv1aBasis, out, 32));
}

TraceHeader
decodeTraceHeader(const uint8_t *in, const std::string &path)
{
    if (leLoad32(in) != kTraceMagic)
        throw TraceError("'" + path + "' is not a bptrace file (bad magic)");
    const uint32_t version = leLoad32(in + 4);
    if (version < kTraceMinVersion || version > kTraceVersion)
        throw TraceError("'" + path + "' has unsupported trace version " +
                         std::to_string(version) + " (this build reads " +
                         std::to_string(kTraceMinVersion) + " to " +
                         std::to_string(kTraceVersion) + ")");
    if (leLoad64(in + 32) != fnv1aUpdate(kFnv1aBasis, in, 32))
        throw TraceError("'" + path +
                         "' has a corrupt or unfinalized trace header "
                         "(checksum mismatch)");
    if (leLoad32(in + 12) != 0)
        throw TraceError("'" + path +
                         "' sets reserved trace header bits this build "
                         "does not understand");
    TraceHeader header;
    header.version = version;
    header.threadCount = leLoad32(in + 8);
    header.regionCount = leLoad64(in + 16);
    header.indexOffset = leLoad64(in + 24);
    if (header.threadCount < 1 || header.threadCount > kMaxCores)
        throw TraceError("'" + path + "' declares " +
                         std::to_string(header.threadCount) +
                         " threads; supported range is [1, " +
                         std::to_string(kMaxCores) + "]");
    return header;
}

} // namespace bp
