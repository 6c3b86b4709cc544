/**
 * @file
 * Fuzz target for both VCD entry points — the incremental
 * VcdChunkReader and the batch tryParseVcd(), which drains it and adds
 * its own in-memory cap — on arbitrary bytes: Status errors only, no
 * throw/crash/hang/unbounded allocation.
 */

#include "fuzz/fuzz_driver.hh"

#include <sstream>
#include <string>

#include "trace/stream_reader.hh"
#include "trace/vcd.hh"

void
apolloFuzzOne(const uint8_t *data, size_t size)
{
    const std::string text(reinterpret_cast<const char *>(data), size);

    {
        std::istringstream is(text);
        apollo::StatusOr<apollo::VcdTrace> parsed =
            apollo::tryParseVcd(is);
        (void)parsed;
    }

    std::istringstream is(text);
    apollo::VcdChunkReader reader(is);
    apollo::ProxyChunk chunk;
    uint64_t rows = 0;
    for (int iter = 0; iter < 4096; ++iter) {
        apollo::StatusOr<size_t> got = reader.next(512, chunk);
        if (!got.ok() || *got == 0)
            break;
        rows += *got;
        if (rows > (uint64_t{1} << 22))
            break;
    }
}
