#include "serve/wire.hh"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <vector>

namespace apollo::serve {

namespace {

// Protocol bounds: a request must be parseable without trusting the
// peer. The hex-length check below then pins the exact payload size.
constexpr uint64_t kMaxChunkCycles = uint64_t{1} << 32;
constexpr uint64_t kMaxChunkProxies = uint64_t{1} << 20;
constexpr size_t kMaxSessionName = 64;

/**
 * A scanned JSON string: a view into the request line, or into its
 * unescaped copy when the string held escapes (the rare slow path).
 */
struct Text
{
    std::string_view raw;
    std::string unescaped;
    bool escaped = false;

    std::string_view
    view() const
    {
        return escaped ? std::string_view(unescaped) : raw;
    }
};

/** One scanned "key": value pair of a flat request object. */
struct Field
{
    Text key;
    enum Kind
    {
        Str,
        UInt,
        Bool
    } kind = Str;
    Text str;
    uint64_t num = 0;
    bool flag = false;
};

void
skipSpace(std::string_view s, size_t &i)
{
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' ||
                            s[i] == '\r' || s[i] == '\n'))
        i++;
}

Status
scanString(std::string_view s, size_t &i, Text &text)
{
    if (i >= s.size() || s[i] != '"')
        return Status::parseError("expected '\"' at offset ", i);
    i++;
    // Fast path: a closing quote with no backslash before it ends the
    // string, which is then the span itself — no per-byte copy of a
    // chunk payload.
    const char *begin = s.data() + i;
    const auto *quote = static_cast<const char *>(
        std::memchr(begin, '"', s.size() - i));
    if (quote && !std::memchr(begin, '\\', quote - begin)) {
        text.raw = std::string_view(begin, quote - begin);
        text.escaped = false;
        i += text.raw.size() + 1;
        return Status::okStatus();
    }
    text.escaped = true;
    std::string &out = text.unescaped;
    out.clear();
    while (i < s.size() && s[i] != '"') {
        char c = s[i++];
        if (c == '\\') {
            if (i >= s.size())
                return Status::parseError("dangling escape");
            char e = s[i++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            default:
                return Status::parseError("unsupported escape '\\", e,
                                          "'");
            }
        } else {
            out += c;
        }
    }
    if (i >= s.size())
        return Status::parseError("unterminated string");
    i++; // closing quote
    return Status::okStatus();
}

Status
scanValue(std::string_view s, size_t &i, Field &field)
{
    skipSpace(s, i);
    if (i >= s.size())
        return Status::parseError("missing value");
    const char c = s[i];
    if (c == '"') {
        field.kind = Field::Str;
        return scanString(s, i, field.str);
    }
    if (c >= '0' && c <= '9') {
        field.kind = Field::UInt;
        uint64_t value = 0;
        size_t digits = 0;
        while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
            const uint64_t d = static_cast<uint64_t>(s[i] - '0');
            if (value > (UINT64_MAX - d) / 10)
                return Status::parseError("integer overflow");
            value = value * 10 + d;
            i++;
            digits++;
        }
        if (digits == 0)
            return Status::parseError("empty number");
        field.num = value;
        return Status::okStatus();
    }
    if (s.compare(i, 4, "true") == 0) {
        field.kind = Field::Bool;
        field.flag = true;
        i += 4;
        return Status::okStatus();
    }
    if (s.compare(i, 5, "false") == 0) {
        field.kind = Field::Bool;
        field.flag = false;
        i += 5;
        return Status::okStatus();
    }
    return Status::parseError("unsupported value at offset ", i,
                              " (requests are flat objects of "
                              "strings, unsigned integers, booleans)");
}

/** Scan one flat JSON object into its fields; strict, no nesting. */
Status
scanObject(std::string_view line, std::vector<Field> &fields)
{
    fields.clear();
    size_t i = 0;
    skipSpace(line, i);
    if (i >= line.size() || line[i] != '{')
        return Status::parseError("request line must be a JSON object");
    i++;
    skipSpace(line, i);
    if (i < line.size() && line[i] == '}') {
        i++;
    } else {
        for (;;) {
            Field field;
            skipSpace(line, i);
            if (Status st = scanString(line, i, field.key); !st.ok())
                return st;
            skipSpace(line, i);
            if (i >= line.size() || line[i] != ':')
                return Status::parseError("expected ':' after key '",
                                          field.key.view(), "'");
            i++;
            if (Status st = scanValue(line, i, field); !st.ok())
                return st;
            for (const Field &seen : fields)
                if (seen.key.view() == field.key.view())
                    return Status::parseError("duplicate key '",
                                              field.key.view(), "'");
            fields.push_back(std::move(field));
            skipSpace(line, i);
            if (i < line.size() && line[i] == ',') {
                i++;
                continue;
            }
            if (i < line.size() && line[i] == '}') {
                i++;
                break;
            }
            return Status::parseError("expected ',' or '}' at offset ",
                                      i);
        }
    }
    skipSpace(line, i);
    if (i != line.size())
        return Status::parseError("trailing bytes after request object");
    return Status::okStatus();
}

const Field *
findField(const std::vector<Field> &fields, std::string_view key)
{
    for (const Field &f : fields)
        if (f.key.view() == key)
            return &f;
    return nullptr;
}

StatusOr<uint64_t>
uintField(const std::vector<Field> &fields, std::string_view key)
{
    const Field *f = findField(fields, key);
    if (!f)
        return Status::invalidArgument("missing field '", key, "'");
    if (f->kind != Field::UInt)
        return Status::invalidArgument("field '", key,
                                       "' must be an unsigned integer");
    return f->num;
}

/** A string field's value, viewing the line or its field. */
StatusOr<std::string_view>
strField(const std::vector<Field> &fields, std::string_view key)
{
    const Field *f = findField(fields, key);
    if (!f)
        return Status::invalidArgument("missing field '", key, "'");
    if (f->kind != Field::Str)
        return Status::invalidArgument("field '", key,
                                       "' must be a string");
    return f->str.view();
}

/** JSON string escaping for the few names that can need it. */
std::string
quoted(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default: out += c;
        }
    }
    out += '"';
    return out;
}

std::string
floatToken(float v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(v));
    return buf;
}

std::string
responseHead(std::string_view event)
{
    std::string out = "{\"schema_version\":";
    out += std::to_string(kSchemaVersion);
    out += ",\"event\":\"";
    out += event;
    out += '"';
    return out;
}

constexpr char kHexDigits[] = "0123456789abcdef";

/** Digits of the packed words of @p bits, 16 per word. */
size_t
hexSize(const BitColumnMatrix &bits)
{
    return bits.cols() * bits.wordsPerCol() * 16;
}

/** Append the hex of @p bits, writing in place after one resize. */
void
appendBitsHex(std::string &out, const BitColumnMatrix &bits)
{
    const size_t wpc = bits.wordsPerCol();
    const size_t at = out.size();
    out.resize(at + hexSize(bits));
    char *digit = out.data() + at;
    for (size_t c = 0; c < bits.cols(); ++c) {
        const uint64_t *words = bits.colWords(c);
        for (size_t w = 0; w < wpc; ++w, digit += 16) {
            uint64_t value = words[w];
            for (int k = 15; k >= 0; --k, value >>= 4)
                digit[k] = kHexDigits[value & 0xF];
        }
    }
}

} // namespace

bool
validSessionName(std::string_view name)
{
    if (name.empty() || name.size() > kMaxSessionName)
        return false;
    for (char c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '-')
            return false;
    return true;
}

const char *
statusCodeWireName(StatusCode code)
{
    switch (code) {
    case StatusCode::Ok: return "ok";
    case StatusCode::InvalidArgument: return "invalid_argument";
    case StatusCode::ParseError: return "parse_error";
    case StatusCode::IoError: return "io_error";
    case StatusCode::OutOfRange: return "out_of_range";
    case StatusCode::Cancelled: return "cancelled";
    }
    return "unknown";
}

std::string
encodeBitsHex(const BitColumnMatrix &bits)
{
    std::string out;
    appendBitsHex(out, bits);
    return out;
}

StatusOr<BitColumnMatrix>
decodeBitsHex(std::string_view hex, size_t rows, size_t cols,
              const hexkernels::Kernels &kernels)
{
    // Validate the declared size BEFORE allocating: rows/cols come
    // from the untrusted peer, and BitColumnMatrix(rows, cols)
    // eagerly reserves wordsPerCol*cols words — within the protocol
    // bounds alone that is still a multi-terabyte request. Only a
    // payload whose length matches (so the allocation is bounded by
    // bytes actually on the wire) may drive the allocation.
    const uint64_t wpc =
        static_cast<uint64_t>(rows) / 64 + (rows % 64 != 0 ? 1 : 0);
    uint64_t words = 0;
    if ((cols != 0 && wpc > UINT64_MAX / cols) ||
        (words = wpc * cols) > UINT64_MAX / 16)
        return Status::parseError("bits payload size for ", rows, "x",
                                  cols, " overflows");
    const uint64_t expected = words * 16;
    if (hex.size() != expected)
        return Status::parseError("bits payload is ", hex.size(),
                                  " hex digits, ", rows, "x", cols,
                                  " needs ", expected);
    BitColumnMatrix bits(rows, cols);
    // Bits past rows-1 in each column's last word must be zero — the
    // compute kernels' zero-tail contract.
    const uint64_t tail_mask =
        (rows % 64 == 0) ? ~uint64_t{0}
                         : ((uint64_t{1} << (rows % 64)) - 1);
    // One column at a time, so a bad digit and a forged tail are
    // reported in payload order.
    for (size_t c = 0; c < cols; ++c) {
        uint64_t *out = bits.colWordsMutable(c);
        if (!kernels.decodeWords(hex.data() + c * wpc * 16, wpc, out))
            return Status::parseError("non-hex digit in bits payload");
        if (wpc != 0 && (out[wpc - 1] & ~tail_mask) != 0)
            return Status::parseError(
                "bits payload has set bits past row ", rows,
                " in column ", c);
    }
    return bits;
}

StatusOr<WireRequest>
parseRequestLine(std::string_view line)
{
    std::vector<Field> fields;
    if (Status st = scanObject(line, fields); !st.ok())
        return st;

    StatusOr<uint64_t> version = uintField(fields, "schema_version");
    if (!version.ok())
        return version.status();
    if (*version != kSchemaVersion)
        return Status::invalidArgument("unsupported schema_version ",
                                       *version, ", this build speaks ",
                                       kSchemaVersion);
    StatusOr<std::string_view> op = strField(fields, "op");
    if (!op.ok())
        return op.status();

    WireRequest request;
    std::vector<std::string_view> allowed = {"schema_version", "op"};
    if (*op == "create_session") {
        request.op = RequestOp::CreateSession;
        allowed.insert(allowed.end(),
                       {"session", "model", "window_t"});
    } else if (*op == "submit_chunk") {
        request.op = RequestOp::SubmitChunk;
        allowed.insert(allowed.end(),
                       {"session", "cycles", "proxies", "bits"});
    } else if (*op == "close_session") {
        request.op = RequestOp::CloseSession;
        allowed.push_back("session");
    } else if (*op == "cancel_session") {
        request.op = RequestOp::CancelSession;
        allowed.push_back("session");
    } else if (*op == "list_models") {
        request.op = RequestOp::ListModels;
    } else {
        return Status::invalidArgument("unknown op '", *op, "'");
    }
    for (const Field &f : fields) {
        bool known = false;
        for (std::string_view key : allowed)
            known = known || f.key.view() == key;
        if (!known)
            return Status::invalidArgument("unexpected field '",
                                           f.key.view(),
                                           "' for op '", *op, "'");
    }

    if (request.op != RequestOp::ListModels) {
        StatusOr<std::string_view> session =
            strField(fields, "session");
        if (!session.ok())
            return session.status();
        if (!validSessionName(*session))
            return Status::invalidArgument(
                "session names are 1-64 chars of [A-Za-z0-9_-]");
        request.session = *session;
    }

    if (request.op == RequestOp::CreateSession) {
        StatusOr<std::string_view> model = strField(fields, "model");
        if (!model.ok())
            return model.status();
        if (model->empty())
            return Status::invalidArgument("model must be non-empty");
        request.model = *model;
        if (findField(fields, "window_t")) {
            StatusOr<uint64_t> window = uintField(fields, "window_t");
            if (!window.ok())
                return window.status();
            if (*window > UINT32_MAX)
                return Status::invalidArgument("window_t out of range");
            request.windowT = static_cast<uint32_t>(*window);
        }
    }

    if (request.op == RequestOp::SubmitChunk) {
        StatusOr<uint64_t> cycles = uintField(fields, "cycles");
        StatusOr<uint64_t> proxies = uintField(fields, "proxies");
        StatusOr<std::string_view> payload = strField(fields, "bits");
        if (!cycles.ok())
            return cycles.status();
        if (!proxies.ok())
            return proxies.status();
        if (!payload.ok())
            return payload.status();
        if (*cycles == 0 || *cycles > kMaxChunkCycles)
            return Status::invalidArgument("cycles must be in [1, ",
                                           kMaxChunkCycles, "]");
        if (*proxies == 0 || *proxies > kMaxChunkProxies)
            return Status::invalidArgument("proxies must be in [1, ",
                                           kMaxChunkProxies, "]");
        StatusOr<BitColumnMatrix> bits =
            decodeBitsHex(*payload, static_cast<size_t>(*cycles),
                          static_cast<size_t>(*proxies));
        if (!bits.ok())
            return bits.status();
        request.bits = std::move(*bits);
    }
    return request;
}

std::string
encodeRequest(const WireRequest &request)
{
    std::string out = "{\"schema_version\":";
    out += std::to_string(kSchemaVersion);
    switch (request.op) {
    case RequestOp::CreateSession:
        out += ",\"op\":\"create_session\",\"session\":";
        out += quoted(request.session);
        out += ",\"model\":";
        out += quoted(request.model);
        if (request.windowT != 0) {
            out += ",\"window_t\":";
            out += std::to_string(request.windowT);
        }
        break;
    case RequestOp::SubmitChunk:
        out += ",\"op\":\"submit_chunk\",\"session\":";
        out += quoted(request.session);
        out += ",\"cycles\":";
        out += std::to_string(request.bits.rows());
        out += ",\"proxies\":";
        out += std::to_string(request.bits.cols());
        out += ",\"bits\":\"";
        // One allocation for the payload and the closing "}\n.
        out.reserve(out.size() + hexSize(request.bits) + 3);
        appendBitsHex(out, request.bits);
        out += '"';
        break;
    case RequestOp::CloseSession:
        out += ",\"op\":\"close_session\",\"session\":";
        out += quoted(request.session);
        break;
    case RequestOp::CancelSession:
        out += ",\"op\":\"cancel_session\",\"session\":";
        out += quoted(request.session);
        break;
    case RequestOp::ListModels:
        out += ",\"op\":\"list_models\"";
        break;
    }
    out += "}\n";
    return out;
}

std::string
encodeSessionCreated(const std::string &session,
                     const std::string &model)
{
    std::string out = responseHead("session_created");
    out += ",\"session\":";
    out += quoted(session);
    out += ",\"model\":";
    out += quoted(model);
    out += "}\n";
    return out;
}

std::string
encodePowerEvent(const std::string &session, uint64_t first_index,
                 std::span<const float> values)
{
    std::string out = responseHead("power");
    out += ",\"session\":";
    out += quoted(session);
    out += ",\"first_index\":";
    out += std::to_string(first_index);
    out += ",\"values\":[";
    for (size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ',';
        out += floatToken(values[i]);
    }
    out += "]}\n";
    return out;
}

std::string
encodeSessionClosed(const std::string &session,
                    const SessionSummary &summary)
{
    std::string out = responseHead("session_closed");
    out += ",\"session\":";
    out += quoted(session);
    out += ",\"model\":";
    out += quoted(summary.model);
    out += ",\"cycles\":";
    out += std::to_string(summary.cycles);
    out += ",\"chunks\":";
    out += std::to_string(summary.chunks);
    out += ",\"outputs\":";
    out += std::to_string(summary.outputs);
    out += ",\"cancelled\":";
    out += summary.cancelled ? "true" : "false";
    out += "}\n";
    return out;
}

std::string
encodeSessionCancelled(const std::string &session)
{
    std::string out = responseHead("session_cancelled");
    out += ",\"session\":";
    out += quoted(session);
    out += "}\n";
    return out;
}

std::string
encodeModels(std::span<const ModelInfo> models)
{
    std::string out = responseHead("models");
    out += ",\"models\":[";
    for (size_t i = 0; i < models.size(); ++i) {
        if (i)
            out += ',';
        out += "{\"name\":";
        out += quoted(models[i].name);
        out += ",\"quantized\":";
        out += models[i].quantized ? "true" : "false";
        out += ",\"proxies\":";
        out += std::to_string(models[i].proxyCount);
        out += ",\"bits\":";
        out += std::to_string(models[i].bits);
        out += ",\"window_t\":";
        out += std::to_string(models[i].windowT);
        out += '}';
    }
    out += "]}\n";
    return out;
}

std::string
encodeError(const std::string &session, const Status &status)
{
    std::string out = responseHead("error");
    if (!session.empty()) {
        out += ",\"session\":";
        out += quoted(session);
    }
    out += ",\"code\":\"";
    out += statusCodeWireName(status.code());
    out += "\",\"message\":";
    out += quoted(status.message());
    out += "}\n";
    return out;
}

} // namespace apollo::serve
