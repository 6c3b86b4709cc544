#include "trace/shard_store.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

namespace apollo {

namespace {

constexpr char kMagic[4] = {'A', 'P', 'S', 'H'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 48;

struct ShardHeader
{
    uint32_t version = 0;
    uint64_t rows = 0;
    uint64_t colsTotal = 0;
    uint32_t shardIndex = 0;
    uint32_t shardCount = 0;
    uint64_t firstCol = 0;
    uint64_t cols = 0;
};

void
writeHeader(std::ostream &os, const ShardHeader &h)
{
    os.write(kMagic, sizeof(kMagic));
    os.write(reinterpret_cast<const char *>(&h.version), 4);
    os.write(reinterpret_cast<const char *>(&h.rows), 8);
    os.write(reinterpret_cast<const char *>(&h.colsTotal), 8);
    os.write(reinterpret_cast<const char *>(&h.shardIndex), 4);
    os.write(reinterpret_cast<const char *>(&h.shardCount), 4);
    os.write(reinterpret_cast<const char *>(&h.firstCol), 8);
    os.write(reinterpret_cast<const char *>(&h.cols), 8);
}

/** Parse and bound-check one header from a raw 48-byte buffer. The
 *  dims come from an untrusted file, so every derived quantity below
 *  is computed only after its inputs are bounded (mirrors the APDS
 *  decode fix: individually-plausible dims must not multiply into a
 *  forged huge allocation or mapping). */
Status
parseHeader(const unsigned char *buf, const std::string &path,
            ShardHeader &h)
{
    if (std::memcmp(buf, kMagic, sizeof(kMagic)) != 0)
        return Status::parseError(path, ": not an apollo shard file");
    std::memcpy(&h.version, buf + 4, 4);
    std::memcpy(&h.rows, buf + 8, 8);
    std::memcpy(&h.colsTotal, buf + 16, 8);
    std::memcpy(&h.shardIndex, buf + 24, 4);
    std::memcpy(&h.shardCount, buf + 28, 4);
    std::memcpy(&h.firstCol, buf + 32, 8);
    std::memcpy(&h.cols, buf + 40, 8);
    if (h.version != kVersion)
        return Status::parseError(path, ": unsupported shard version ",
                                  h.version);
    if (h.rows == 0 || h.rows >= kShardMaxRows || h.colsTotal == 0 ||
        h.colsTotal >= kShardMaxCols)
        return Status::parseError(path, ": implausible shard dims ",
                                  h.rows, " x ", h.colsTotal);
    if (h.shardCount == 0 || h.shardCount > kShardMaxShards ||
        h.shardIndex >= h.shardCount || h.shardCount > h.colsTotal)
        return Status::parseError(path, ": implausible shard index ",
                                  h.shardIndex, " of ", h.shardCount);
    // cols <= colsTotal first, so firstCol's bound cannot underflow.
    if (h.cols == 0 || h.cols > h.colsTotal ||
        h.firstCol > h.colsTotal - h.cols)
        return Status::parseError(path, ": shard column range [",
                                  h.firstCol, ", +", h.cols,
                                  ") outside 0..", h.colsTotal);
    return Status::okStatus();
}

Status
validateDims(uint64_t rows, uint64_t cols, uint32_t shards)
{
    if (rows == 0 || rows >= kShardMaxRows)
        return Status::invalidArgument("shard set rows ", rows,
                                       " out of range");
    if (cols == 0 || cols >= kShardMaxCols)
        return Status::invalidArgument("shard set cols ", cols,
                                       " out of range");
    if (shards == 0 || shards > kShardMaxShards ||
        uint64_t{shards} > cols)
        return Status::invalidArgument("shard count ", shards,
                                       " invalid for ", cols,
                                       " columns");
    return Status::okStatus();
}

int
adviceFlag(MappedShardSet::Advice advice)
{
    switch (advice) {
    case MappedShardSet::Advice::Sequential:
        return MADV_SEQUENTIAL;
    case MappedShardSet::Advice::Random:
        return MADV_RANDOM;
    case MappedShardSet::Advice::DontNeed:
        return MADV_DONTNEED;
    case MappedShardSet::Advice::Normal:
    default:
        return MADV_NORMAL;
    }
}

} // namespace

uint64_t
shardFirstCol(uint64_t cols, uint32_t shards, uint32_t k)
{
    const uint64_t base = cols / shards;
    const uint64_t rem = cols % shards;
    return uint64_t{k} * base + std::min<uint64_t>(k, rem);
}

std::string
shardPath(const std::string &base, uint32_t k)
{
    return base + "." + std::to_string(k) + ".apsh";
}

// ---------------------------------------------------------------------------
// ShardSetWriter

struct ShardSetWriter::Impl
{
    std::string base;
    std::ofstream os;
    uint32_t openShard = UINT32_MAX;
};

ShardSetWriter::~ShardSetWriter() = default;
ShardSetWriter::ShardSetWriter(ShardSetWriter &&) noexcept = default;

StatusOr<ShardSetWriter>
ShardSetWriter::open(const std::string &base, uint64_t rows,
                     uint64_t cols, uint32_t shards)
{
    Status dims = validateDims(rows, cols, shards);
    if (!dims.ok())
        return dims;
    ShardSetWriter w;
    w.impl_ = std::make_unique<Impl>();
    w.impl_->base = base;
    w.rows_ = rows;
    w.cols_ = cols;
    w.shards_ = shards;
    w.wordsPerCol_ = static_cast<size_t>((rows + 63) / 64);
    return StatusOr<ShardSetWriter>(std::move(w));
}

Status
ShardSetWriter::appendRaw(const uint64_t *words, uint64_t n_cols)
{
    if (!impl_)
        return Status::invalidArgument("shard writer is closed");
    if (n_cols == 0)
        return Status::okStatus();
    if (n_cols > cols_ - nextCol_)
        return Status::invalidArgument(
            "shard append of ", n_cols, " columns past declared ",
            cols_, " (", nextCol_, " written)");
    // Enforce the packed zero-tail rule at ingest so every file the
    // writer produces satisfies the word-at-a-time kernel contract.
    if ((rows_ & 63) != 0) {
        const uint64_t tail_mask = ~uint64_t{0} << (rows_ & 63);
        for (uint64_t c = 0; c < n_cols; ++c) {
            if ((words[(c + 1) * wordsPerCol_ - 1] & tail_mask) != 0)
                return Status::invalidArgument(
                    "appended column ", nextCol_ + c,
                    " has nonzero bits past row ", rows_);
        }
    }
    uint64_t done = 0;
    while (done < n_cols) {
        // Only one shard file is ever open: columns arrive in
        // ascending order and shards hold contiguous ranges.
        const uint64_t base_cols = cols_ / shards_;
        const uint64_t rem = cols_ % shards_;
        const uint64_t col = nextCol_ + done;
        uint32_t k;
        if (col < rem * (base_cols + 1))
            k = static_cast<uint32_t>(col / (base_cols + 1));
        else
            k = static_cast<uint32_t>(
                rem + (col - rem * (base_cols + 1)) / base_cols);
        if (k != impl_->openShard) {
            if (impl_->os.is_open()) {
                impl_->os.close();
                if (!impl_->os)
                    return Status::ioError("shard write failed for ",
                                           shardPath(impl_->base,
                                                     impl_->openShard));
                impl_->os.clear();
            }
            const std::string path = shardPath(impl_->base, k);
            impl_->os.open(path, std::ios::binary | std::ios::trunc);
            if (!impl_->os.is_open())
                return Status::ioError("cannot open ", path,
                                       " for writing");
            ShardHeader h;
            h.version = kVersion;
            h.rows = rows_;
            h.colsTotal = cols_;
            h.shardIndex = k;
            h.shardCount = shards_;
            h.firstCol = shardFirstCol(cols_, shards_, k);
            h.cols = shardFirstCol(cols_, shards_, k + 1) - h.firstCol;
            writeHeader(impl_->os, h);
            impl_->openShard = k;
        }
        const uint64_t shard_end = shardFirstCol(cols_, shards_, k + 1);
        const uint64_t run = std::min(n_cols - done, shard_end - col);
        impl_->os.write(
            reinterpret_cast<const char *>(words + done * wordsPerCol_),
            static_cast<std::streamsize>(run * wordsPerCol_ *
                                         sizeof(uint64_t)));
        if (!impl_->os)
            return Status::ioError("shard write failed for ",
                                   shardPath(impl_->base, k));
        done += run;
    }
    nextCol_ += n_cols;
    return Status::okStatus();
}

Status
ShardSetWriter::append(const BitColumnMatrix &block)
{
    if (!impl_)
        return Status::invalidArgument("shard writer is closed");
    if (block.rows() != rows_)
        return Status::invalidArgument("shard block has ", block.rows(),
                                       " rows, writer expects ", rows_);
    return appendRaw(block.colWords(0), block.cols());
}

Status
ShardSetWriter::finish()
{
    if (!impl_)
        return Status::invalidArgument("shard writer is closed");
    if (nextCol_ != cols_)
        return Status::invalidArgument("shard set incomplete: ",
                                       nextCol_, " of ", cols_,
                                       " columns written");
    if (impl_->os.is_open()) {
        impl_->os.close();
        if (!impl_->os)
            return Status::ioError("shard write failed for ",
                                   shardPath(impl_->base,
                                             impl_->openShard));
    }
    impl_.reset();
    return Status::okStatus();
}

// ---------------------------------------------------------------------------
// MappedShardSet

MappedShardSet::~MappedShardSet() { releaseAll(); }

MappedShardSet::MappedShardSet(MappedShardSet &&other) noexcept
    : rows_(other.rows_), cols_(other.cols_),
      wordsPerCol_(other.wordsPerCol_), bytesMapped_(other.bytesMapped_),
      shards_(std::move(other.shards_))
{
    other.shards_.clear();
    other.rows_ = other.cols_ = other.wordsPerCol_ = 0;
    other.bytesMapped_ = 0;
}

MappedShardSet &
MappedShardSet::operator=(MappedShardSet &&other) noexcept
{
    if (this != &other) {
        releaseAll();
        rows_ = other.rows_;
        cols_ = other.cols_;
        wordsPerCol_ = other.wordsPerCol_;
        bytesMapped_ = other.bytesMapped_;
        shards_ = std::move(other.shards_);
        other.shards_.clear();
        other.rows_ = other.cols_ = other.wordsPerCol_ = 0;
        other.bytesMapped_ = 0;
    }
    return *this;
}

void
MappedShardSet::releaseAll()
{
    for (Shard &s : shards_) {
        if (s.mapBase != nullptr)
            ::munmap(s.mapBase, s.mapLen);
    }
    shards_.clear();
    bytesMapped_ = 0;
}

uint32_t
MappedShardSet::shardOf(uint64_t col) const
{
    // Shards hold contiguous ranges in ascending order; binary search
    // the last shard whose firstCol <= col.
    uint32_t lo = 0;
    uint32_t hi = static_cast<uint32_t>(shards_.size()) - 1;
    while (lo < hi) {
        const uint32_t mid = (lo + hi + 1) / 2;
        if (shards_[mid].firstCol <= col)
            lo = mid;
        else
            hi = mid - 1;
    }
    return lo;
}

StatusOr<MappedShardSet>
MappedShardSet::open(const std::string &base)
{
    // Peek shard 0's header to learn the shard count, then map the set.
    const std::string first = shardPath(base, 0);
    std::ifstream is(first, std::ios::binary);
    if (!is.is_open())
        return Status::ioError("cannot open ", first);
    unsigned char buf[kHeaderBytes];
    is.read(reinterpret_cast<char *>(buf), kHeaderBytes);
    if (!is)
        return Status::ioError("truncated shard header in ", first);
    ShardHeader h;
    Status st = parseHeader(buf, first, h);
    if (!st.ok())
        return st;
    is.close();
    std::vector<std::string> paths;
    paths.reserve(h.shardCount);
    for (uint32_t k = 0; k < h.shardCount; ++k)
        paths.push_back(shardPath(base, k));
    return openFiles(paths);
}

StatusOr<MappedShardSet>
MappedShardSet::openFiles(const std::vector<std::string> &paths)
{
    if (paths.empty())
        return Status::invalidArgument("no shard files given");
    MappedShardSet set;
    uint64_t rows = 0;
    uint64_t cols_total = 0;
    uint32_t shard_count = 0;
    std::vector<bool> seen;
    for (const std::string &path : paths) {
        const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
        if (fd < 0)
            return Status::ioError("cannot open ", path);
        struct stat sb;
        if (::fstat(fd, &sb) != 0) {
            ::close(fd);
            return Status::ioError("cannot stat ", path);
        }
        unsigned char buf[kHeaderBytes];
        const ssize_t got = ::pread(fd, buf, kHeaderBytes, 0);
        if (got != static_cast<ssize_t>(kHeaderBytes)) {
            ::close(fd);
            return Status::ioError("truncated shard header in ", path);
        }
        ShardHeader h;
        Status st = parseHeader(buf, path, h);
        if (!st.ok()) {
            ::close(fd);
            return st;
        }
        if (set.shards_.empty()) {
            rows = h.rows;
            cols_total = h.colsTotal;
            shard_count = h.shardCount;
            if (paths.size() != shard_count) {
                ::close(fd);
                return Status::invalidArgument(
                    "shard set expects ", shard_count, " files, got ",
                    paths.size());
            }
            set.rows_ = static_cast<size_t>(rows);
            set.cols_ = static_cast<size_t>(cols_total);
            set.wordsPerCol_ = static_cast<size_t>((rows + 63) / 64);
            seen.assign(shard_count, false);
        } else if (h.rows != rows || h.colsTotal != cols_total ||
                   h.shardCount != shard_count) {
            ::close(fd);
            return Status::parseError(path,
                                      ": inconsistent shard set dims");
        }
        if (seen[h.shardIndex]) {
            ::close(fd);
            return Status::parseError(path, ": duplicate shard index ",
                                      h.shardIndex);
        }
        seen[h.shardIndex] = true;
        // Both factors are already bounded (cols < 2^24, wordsPerCol
        // <= 2^22), so this product cannot overflow u64; the mapping
        // is refused unless the file is EXACTLY the implied size, so
        // no in-bounds column access can touch past the mapping.
        const uint64_t payload =
            h.cols * static_cast<uint64_t>(set.wordsPerCol_) * 8;
        const uint64_t expect = kHeaderBytes + payload;
        if (static_cast<uint64_t>(sb.st_size) != expect) {
            ::close(fd);
            return Status::parseError(
                path, ": size ", static_cast<uint64_t>(sb.st_size),
                " does not match header-implied ", expect);
        }
        void *map = ::mmap(nullptr, static_cast<size_t>(expect),
                           PROT_READ, MAP_PRIVATE, fd, 0);
        ::close(fd); // mapping keeps the file alive
        if (map == MAP_FAILED)
            return Status::ioError("mmap failed for ", path);
        Shard s;
        s.firstCol = h.firstCol;
        s.cols = h.cols;
        s.mapBase = map;
        s.mapLen = static_cast<size_t>(expect);
        // Header is 48 bytes, 8-byte aligned, so the payload pointer
        // is a valid uint64_t*.
        s.words = reinterpret_cast<const uint64_t *>(
            static_cast<const unsigned char *>(map) + kHeaderBytes);
        set.bytesMapped_ += expect;
        set.shards_.push_back(s);
    }
    std::sort(set.shards_.begin(), set.shards_.end(),
              [](const Shard &a, const Shard &b) {
                  return a.firstCol < b.firstCol;
              });
    uint64_t next = 0;
    for (const Shard &s : set.shards_) {
        if (s.firstCol != next)
            return Status::parseError(
                "shard set has a gap: expected first column ", next,
                ", got ", s.firstCol);
        next = s.firstCol + s.cols;
    }
    if (next != cols_total)
        return Status::parseError("shard set covers ", next, " of ",
                                  cols_total, " columns");
    return StatusOr<MappedShardSet>(std::move(set));
}

void
MappedShardSet::adviseShard(uint32_t k, Advice advice) const
{
    const Shard &s = shards_[k];
    ::madvise(s.mapBase, s.mapLen, adviceFlag(advice));
}

void
MappedShardSet::adviseColumns(uint32_t k, uint64_t first, uint64_t n,
                              Advice advice) const
{
    if (n == 0)
        return;
    const Shard &s = shards_[k];
    const long page_l = ::sysconf(_SC_PAGESIZE);
    const uintptr_t page = page_l > 0 ? static_cast<uintptr_t>(page_l)
                                      : uintptr_t{4096};
    const uintptr_t lo_raw = reinterpret_cast<uintptr_t>(
        s.words + first * wordsPerCol_);
    const uintptr_t hi_raw = reinterpret_cast<uintptr_t>(
        s.words + (first + n) * wordsPerCol_);
    // Round out to page boundaries, clamped to this shard's mapping.
    const uintptr_t base = reinterpret_cast<uintptr_t>(s.mapBase);
    uintptr_t lo = lo_raw & ~(page - 1);
    uintptr_t hi = (hi_raw + page - 1) & ~(page - 1);
    if (lo < base)
        lo = base;
    if (hi > base + s.mapLen)
        hi = base + s.mapLen;
    if (hi > lo)
        ::madvise(reinterpret_cast<void *>(lo), hi - lo,
                  adviceFlag(advice));
}

Status
MappedShardSet::validateTails() const
{
    if ((rows_ & 63) == 0)
        return Status::okStatus();
    for (uint64_t c = 0; c < cols_; ++c) {
        if (!columnTailClean(c))
            return Status::parseError(
                "shard column ", c, " has nonzero bits past row ",
                rows_);
    }
    return Status::okStatus();
}

// ---------------------------------------------------------------------------

Status
saveShardedMatrix(const std::string &base, const BitColumnMatrix &X,
                  uint32_t shards, size_t block_cols)
{
    StatusOr<ShardSetWriter> w =
        ShardSetWriter::open(base, X.rows(), X.cols(), shards);
    if (!w.ok())
        return w.status();
    if (block_cols == 0)
        block_cols = 1;
    for (size_t c0 = 0; c0 < X.cols(); c0 += block_cols) {
        const size_t run = std::min(block_cols, X.cols() - c0);
        Status st = w->appendRaw(X.colWords(c0), run);
        if (!st.ok())
            return st;
    }
    return w->finish();
}

} // namespace apollo
