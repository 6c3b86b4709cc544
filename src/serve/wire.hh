/**
 * @file
 * The versioned line-delimited JSON wire form of the serving API
 * (docs/SERVE_SCHEMA.md is the normative spec). One request or
 * response per line, every line a flat JSON object carrying
 * "schema_version". Chunk payloads travel as hex-encoded packed
 * column-major words — exactly the BitColumnMatrix memory layout — so
 * encode/decode round-trips are bit-exact, and a recorded request
 * stream replays to bit-identical power samples.
 *
 * The parser is deliberately strict (single flat object, known keys,
 * exact types, zero-tail payload words): data errors come back as
 * ParseError/InvalidArgument Status values per the repo's two-regime
 * error model, never exceptions or aborts.
 */

#ifndef APOLLO_SERVE_WIRE_HH
#define APOLLO_SERVE_WIRE_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "serve/model_registry.hh"
#include "serve/session_manager.hh"
#include "util/bitvec.hh"
#include "util/hex_kernels.hh"
#include "util/status.hh"

namespace apollo::serve {

/** Wire protocol version; bump on any incompatible schema change. */
constexpr uint32_t kSchemaVersion = 1;

/** The five request verbs of serving API v1. */
enum class RequestOp
{
    CreateSession,
    SubmitChunk,
    CloseSession,
    CancelSession,
    ListModels,
};

/** One parsed request line. */
struct WireRequest
{
    RequestOp op = RequestOp::ListModels;
    /** Client-chosen session name ([A-Za-z0-9_-], at most 64 chars). */
    std::string session;
    /** create_session: registry model name. */
    std::string model;
    /** create_session: optional float-engine window T. */
    uint32_t windowT = 0;
    /** submit_chunk: decoded chunk payload. */
    BitColumnMatrix bits;
};

/**
 * Parse one request line. ParseError for malformed JSON or payload
 * encoding; InvalidArgument for schema violations (wrong
 * schema_version, unknown op, bad session name, missing fields).
 */
StatusOr<WireRequest> parseRequestLine(std::string_view line);

/** Encode a request as one newline-terminated wire line. */
std::string encodeRequest(const WireRequest &request);

/** @name Response encoders (each returns one "...\n" line). */
///@{
std::string encodeSessionCreated(const std::string &session,
                                 const std::string &model);
std::string encodePowerEvent(const std::string &session,
                             uint64_t first_index,
                             std::span<const float> values);
std::string encodeSessionClosed(const std::string &session,
                                const SessionSummary &summary);
std::string encodeSessionCancelled(const std::string &session);
std::string encodeModels(std::span<const ModelInfo> models);
std::string encodeError(const std::string &session,
                        const Status &status);
///@}

/** Stable wire name of a status code ("invalid_argument", ...). */
const char *statusCodeWireName(StatusCode code);

/** True iff @p name is a valid wire session name. */
bool validSessionName(std::string_view name);

/** Hex encoding of the packed column-major words of @p bits. */
std::string encodeBitsHex(const BitColumnMatrix &bits);

/**
 * Decode an encodeBitsHex() payload back into a @p rows x @p cols
 * matrix. ParseError for non-hex input, a length not equal to
 * cols * wordsPerCol words, or set bits past @p rows in a column's
 * tail word (the zero-tail contract the compute kernels rely on).
 * Digits may be upper or lower case. @p kernels picks the hex decode
 * tier; every tier gives the same matrix and Status.
 */
StatusOr<BitColumnMatrix> decodeBitsHex(
    std::string_view hex, size_t rows, size_t cols,
    const hexkernels::Kernels &kernels = hexkernels::kernels());

} // namespace apollo::serve

#endif // APOLLO_SERVE_WIRE_HH
