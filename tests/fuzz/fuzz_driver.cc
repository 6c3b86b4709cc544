#include "fuzz/fuzz_driver.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hh"

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    apolloFuzzOne(data, size);
    return 0;
}

namespace apollo::fuzz {

namespace {

using Bytes = std::vector<uint8_t>;

/**
 * Every file under the corpus paths on the command line. A path that
 * holds no file is an error (nullopt): a missing or emptied seed
 * directory would otherwise leave only random bytes to mutate.
 */
std::optional<std::vector<Bytes>>
loadCorpus(int argc, char **argv)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    for (int i = 1; i < argc; ++i) {
        std::error_code ec;
        const fs::path p(argv[i]);
        const size_t before = files.size();
        if (fs::is_directory(p, ec)) {
            for (const auto &entry : fs::directory_iterator(p, ec))
                if (entry.is_regular_file())
                    files.push_back(entry.path());
        } else if (fs::is_regular_file(p, ec)) {
            files.push_back(p);
        }
        if (files.size() == before) {
            std::fprintf(stderr, "fuzz: corpus path %s holds no inputs\n",
                         argv[i]);
            return std::nullopt;
        }
    }
    std::sort(files.begin(), files.end()); // deterministic replay order

    std::vector<Bytes> corpus;
    for (const fs::path &f : files) {
        std::ifstream is(f, std::ios::binary);
        if (!is)
            continue;
        Bytes bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
        corpus.push_back(std::move(bytes));
    }
    return corpus;
}

uint64_t
envU64(const char *name, uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0')
        return fallback;
    return std::strtoull(v, nullptr, 0);
}

/** One random structural mutation of @p bytes. */
void
mutate(Xoshiro256StarStar &rng, Bytes &bytes)
{
    static constexpr uint64_t kBoundary[] = {
        0,          1,          0x7f,       0xff,
        0x7fffffff, 0xffffffff, 0x100000000ULL,
        0x7fffffffffffffffULL,  0xffffffffffffffffULL};
    switch (rng.nextBounded(6)) {
      case 0: // flip a byte
        if (!bytes.empty())
            bytes[rng.nextBounded(bytes.size())] ^=
                static_cast<uint8_t>(1 + rng.nextBounded(255));
        break;
      case 1: // truncate
        if (!bytes.empty())
            bytes.resize(rng.nextBounded(bytes.size()));
        break;
      case 2: { // insert random bytes
        const size_t count = 1 + rng.nextBounded(16);
        const size_t at = bytes.empty() ? 0
                                        : rng.nextBounded(bytes.size());
        Bytes blob(count);
        for (uint8_t &b : blob)
            b = static_cast<uint8_t>(rng.nextBounded(256));
        bytes.insert(bytes.begin() + static_cast<ptrdiff_t>(at),
                     blob.begin(), blob.end());
        break;
      }
      case 3: { // duplicate a slice (splice)
        if (bytes.empty())
            break;
        const size_t from = rng.nextBounded(bytes.size());
        const size_t len =
            std::min<size_t>(1 + rng.nextBounded(64),
                             bytes.size() - from);
        Bytes slice(bytes.begin() + static_cast<ptrdiff_t>(from),
                    bytes.begin() + static_cast<ptrdiff_t>(from + len));
        const size_t at = rng.nextBounded(bytes.size());
        bytes.insert(bytes.begin() + static_cast<ptrdiff_t>(at),
                     slice.begin(), slice.end());
        break;
      }
      case 4: { // overwrite 4 bytes with a boundary value
        if (bytes.size() < 4)
            break;
        const uint64_t v = kBoundary[rng.nextBounded(std::size(kBoundary))];
        const uint32_t v32 = static_cast<uint32_t>(v);
        std::memcpy(&bytes[rng.nextBounded(bytes.size() - 3)], &v32, 4);
        break;
      }
      default: { // overwrite 8 bytes with a boundary value
        if (bytes.size() < 8)
            break;
        const uint64_t v = kBoundary[rng.nextBounded(std::size(kBoundary))];
        std::memcpy(&bytes[rng.nextBounded(bytes.size() - 7)], &v, 8);
        break;
      }
    }
    if (bytes.size() > (1u << 20)) // keep inputs bounded
        bytes.resize(1u << 20);
}

uint64_t g_current_seed = 0;

void
runOne(const Bytes &bytes)
{
    try {
        apolloFuzzOne(bytes.data(), bytes.size());
    } catch (const std::exception &e) {
        std::fprintf(stderr,
                     "FUZZ-BUG: target threw %s (input %zu bytes, "
                     "seed 0x%llx)\n",
                     e.what(), bytes.size(),
                     static_cast<unsigned long long>(g_current_seed));
        std::abort();
    } catch (...) {
        std::fprintf(stderr,
                     "FUZZ-BUG: target threw non-exception (seed "
                     "0x%llx)\n",
                     static_cast<unsigned long long>(g_current_seed));
        std::abort();
    }
}

} // namespace

int
driverMain(int argc, char **argv)
{
    const std::optional<std::vector<Bytes>> loaded =
        loadCorpus(argc, argv);
    if (!loaded)
        return 1;
    const std::vector<Bytes> &corpus = *loaded;
    for (const Bytes &input : corpus)
        runOne(input);
    std::printf("fuzz: replayed %zu corpus inputs\n", corpus.size());

    const uint64_t seed = envU64("APOLLO_FUZZ_SEED", 0x41505431);
    const uint64_t iters = envU64("APOLLO_FUZZ_ITERS", 1000);
    const uint64_t seconds = envU64("APOLLO_FUZZ_SECONDS", 0);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(seconds);

    Xoshiro256StarStar rng(hashMix(seed));
    uint64_t ran = 0;
    for (uint64_t i = 0;; ++i) {
        if (seconds > 0) {
            if (std::chrono::steady_clock::now() >= deadline)
                break;
        } else if (i >= iters) {
            break;
        }
        g_current_seed = seed + i;
        Bytes input;
        if (!corpus.empty() && rng.nextDouble() < 0.8)
            input = corpus[rng.nextBounded(corpus.size())];
        else {
            input.resize(rng.nextBounded(4096));
            for (uint8_t &b : input)
                b = static_cast<uint8_t>(rng.nextBounded(256));
        }
        const size_t rounds = 1 + rng.nextBounded(8);
        for (size_t r = 0; r < rounds; ++r)
            mutate(rng, input);
        runOne(input);
        ran++;
    }
    std::printf("fuzz: %llu mutated inputs, no crashes\n",
                static_cast<unsigned long long>(ran));
    return 0;
}

} // namespace apollo::fuzz

#ifndef APOLLO_LIBFUZZER
int
main(int argc, char **argv)
{
    return apollo::fuzz::driverMain(argc, argv);
}
#endif
