/**
 * @file
 * Shared fallback fuzz driver (docs/INTERNALS.md §8). Each fuzz target
 * defines apolloFuzzOne(data, size) and gets two entry points:
 *
 *  - LLVMFuzzerTestOneInput, so the same object links against
 *    libFuzzer when the toolchain has one (-DAPOLLO_LIBFUZZER=ON adds
 *    -fsanitize=fuzzer and drops the fallback main);
 *  - a fallback main() that replays every corpus file given on the
 *    command line (a path holding no file fails the run) and then runs a deterministic seeded random-mutation
 *    loop — byte flips, truncations, splices, boundary-value integer
 *    overwrites — against the corpus inputs.
 *
 * Environment knobs (fallback driver):
 *   APOLLO_FUZZ_ITERS    mutation iterations (default 1000)
 *   APOLLO_FUZZ_SECONDS  wall-clock budget; overrides ITERS when set
 *   APOLLO_FUZZ_SEED     base seed (default 0x41505431)
 *
 * The target must never crash, hang, or throw on arbitrary bytes:
 * parsers report malformed input as Status values. The driver itself
 * treats any escaping exception as a bug and aborts with the
 * offending input's seed.
 */

#ifndef APOLLO_TESTS_FUZZ_FUZZ_DRIVER_HH
#define APOLLO_TESTS_FUZZ_FUZZ_DRIVER_HH

#include <cstddef>
#include <cstdint>

/** Defined by each fuzz target. Must tolerate arbitrary bytes. */
void apolloFuzzOne(const uint8_t *data, size_t size);

namespace apollo::fuzz {

/** Fallback driver entry (corpus replay + seeded mutation loop). */
int driverMain(int argc, char **argv);

} // namespace apollo::fuzz

#endif // APOLLO_TESTS_FUZZ_FUZZ_DRIVER_HH
