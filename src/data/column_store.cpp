#include "data/column_store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <system_error>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/error.hpp"
#include "nn/serialize.hpp"

namespace goodones::data {

namespace {

using common::PreconditionError;
using common::SerializationError;

// Segment geometry guard mirroring nn/serialize's kMaxElements: a corrupt
// header must fail loudly instead of driving a multi-gigabyte allocation.
constexpr std::uint64_t kMaxSegmentElements = 1ull << 26;

constexpr std::size_t kHeaderBytes = 40;  // magic+version+channels+capacity+start+count
constexpr std::size_t kCrcBytes = 4;

std::uint64_t read_header_u64(const std::byte* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t read_header_u32(const std::byte* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

// --- MappedSegment -----------------------------------------------------------

MappedSegment::MappedSegment(const std::filesystem::path& path, bool allow_mmap) {
  if (allow_mmap) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      struct stat st {};
      if (::fstat(fd, &st) == 0 && st.st_size > 0) {
        void* addr = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                            MAP_PRIVATE, fd, 0);
        if (addr != MAP_FAILED) {
          data_ = static_cast<const std::byte*>(addr);
          size_ = static_cast<std::size_t>(st.st_size);
          mapped_ = true;
        }
      }
      ::close(fd);
      if (mapped_) return;
    }
  }
  // Read fallback (mmap disallowed or failed): slurp the whole file. The
  // vector's allocation comes from operator new, which guarantees at least
  // 16-byte alignment — enough for the f64 columns at the 8-aligned header
  // offset.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw SerializationError("cannot open segment file: " + path.string());
  }
  const std::streamoff size = in.tellg();
  if (size <= 0) {
    throw SerializationError("empty segment file: " + path.string());
  }
  fallback_.resize(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(fallback_.data()), size);
  if (!in) {
    throw SerializationError("short read of segment file: " + path.string());
  }
  data_ = fallback_.data();
  size_ = fallback_.size();
}

MappedSegment::~MappedSegment() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::byte*>(data_), size_);
  }
}

void MappedSegment::release_pages() const noexcept {
  // Not posix_madvise: glibc implements POSIX_MADV_DONTNEED as a no-op. The
  // mapping is read-only, so no page holds private data to lose.
  if (mapped_) ::madvise(const_cast<std::byte*>(data_), size_, MADV_DONTNEED);
}

// --- Segment -----------------------------------------------------------------

Segment::Segment(std::size_t channels, std::size_t capacity, std::uint64_t start_tick)
    : channels_(channels), capacity_(capacity), start_tick_(start_tick) {
  GO_EXPECTS(channels > 0);
  GO_EXPECTS(capacity > 0);
  GO_EXPECTS(static_cast<std::uint64_t>(channels) * capacity <= kMaxSegmentElements);
  // Full preallocation is the lifetime contract: append() never moves
  // storage, so spans handed to WindowViews stay valid.
  columns_.resize(channels_ * capacity_, 0.0);
  regime_bytes_.resize(capacity_, 0);
}

void Segment::append(std::span<const double> values, Regime regime) {
  GO_EXPECTS(writable());
  GO_EXPECTS(!full());
  GO_EXPECTS(values.size() == channels_);
  for (std::size_t c = 0; c < channels_; ++c) {
    columns_[c * capacity_ + count_] = values[c];
  }
  regime_bytes_[count_] = static_cast<std::uint8_t>(regime);
  ++count_;
}

std::span<const double> Segment::channel(std::size_t c) const noexcept {
  if (mapping_) return {mapped_columns_ + c * count_, count_};
  return {columns_.data() + c * capacity_, count_};
}

Regime Segment::regime(std::size_t i) const noexcept {
  const std::uint8_t raw = mapping_ ? mapped_regimes_[i] : regime_bytes_[i];
  return static_cast<Regime>(raw);
}

std::span<const std::uint8_t> Segment::regimes() const noexcept {
  if (mapping_) return {mapped_regimes_, count_};
  return {regime_bytes_.data(), count_};
}

void Segment::save(const std::filesystem::path& path) const {
  GO_EXPECTS(count_ > 0);
  std::ostringstream out(std::ios::binary);
  nn::write_u32(out, kMagic);
  nn::write_u32(out, kVersion);
  nn::write_u64(out, channels_);
  nn::write_u64(out, capacity_);
  nn::write_u64(out, start_tick_);
  nn::write_u64(out, count_);
  // Channel-major f64 columns with count stride: the file holds exactly the
  // filled ticks, so a partial flush and the sealed rewrite share one format.
  for (std::size_t c = 0; c < channels_; ++c) {
    const auto col = channel(c);
    out.write(reinterpret_cast<const char*>(col.data()),
              static_cast<std::streamsize>(col.size() * sizeof(double)));
  }
  const auto regs = regimes();
  out.write(reinterpret_cast<const char*>(regs.data()),
            static_cast<std::streamsize>(regs.size()));
  std::string body = std::move(out).str();
  const std::uint32_t crc = nn::crc32(body.data(), body.size());
  body.append(reinterpret_cast<const char*>(&crc), sizeof(crc));

  // Atomic replace: a crash mid-write never leaves a torn segment behind.
  std::filesystem::create_directories(path.parent_path());
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) {
      throw SerializationError("cannot open segment file for writing: " + tmp.string());
    }
    file.write(body.data(), static_cast<std::streamsize>(body.size()));
    if (!file) {
      throw SerializationError("segment write failed: " + tmp.string());
    }
  }
  std::filesystem::rename(tmp, path);
}

std::shared_ptr<const Segment> Segment::load(const std::filesystem::path& path,
                                             std::size_t expected_channels,
                                             bool allow_mmap) {
  auto mapping = std::make_shared<MappedSegment>(path, allow_mmap);
  const std::byte* base = mapping->data();
  const std::size_t size = mapping->size();
  if (size < kHeaderBytes + kCrcBytes) {
    throw SerializationError("segment file truncated (no header): " + path.string());
  }
  if (read_header_u32(base) != kMagic) {
    throw SerializationError("bad segment magic: " + path.string());
  }
  if (read_header_u32(base + 4) != kVersion) {
    throw SerializationError("bad segment version: " + path.string());
  }
  const std::uint64_t channels = read_header_u64(base + 8);
  const std::uint64_t capacity = read_header_u64(base + 16);
  const std::uint64_t start_tick = read_header_u64(base + 24);
  const std::uint64_t count = read_header_u64(base + 32);
  if (channels != expected_channels) {
    throw SerializationError("segment channel count mismatch: file has " +
                             std::to_string(channels) + ", store expects " +
                             std::to_string(expected_channels) + ": " + path.string());
  }
  if (count == 0 || capacity == 0 || count > capacity ||
      channels * capacity > kMaxSegmentElements) {
    throw SerializationError("implausible segment geometry (corrupt file?): " +
                             path.string());
  }
  const std::uint64_t expected_size =
      kHeaderBytes + channels * count * sizeof(double) + count + kCrcBytes;
  if (size != expected_size) {
    throw SerializationError("segment size mismatch (truncated or corrupt): " +
                             path.string() + " has " + std::to_string(size) +
                             " bytes, header implies " + std::to_string(expected_size));
  }
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, base + size - kCrcBytes, sizeof(stored_crc));
  const std::uint32_t actual_crc = nn::crc32(base, size - kCrcBytes);
  if (stored_crc != actual_crc) {
    throw SerializationError("segment CRC mismatch (corrupt file): " + path.string());
  }
  const auto* regimes = reinterpret_cast<const std::uint8_t*>(
      base + kHeaderBytes + channels * count * sizeof(double));
  for (std::uint64_t i = 0; i < count; ++i) {
    if (regimes[i] > static_cast<std::uint8_t>(Regime::kActive)) {
      throw SerializationError("segment holds invalid regime byte: " + path.string());
    }
  }

  auto segment = std::shared_ptr<Segment>(new Segment());
  segment->channels_ = channels;
  segment->capacity_ = capacity;
  segment->count_ = count;
  segment->start_tick_ = start_tick;
  segment->mapping_ = std::move(mapping);
  segment->mapped_columns_ = reinterpret_cast<const double*>(base + kHeaderBytes);
  segment->mapped_regimes_ = regimes;
  return segment;
}

// --- WindowView --------------------------------------------------------------

double WindowView::at(std::size_t t, std::size_t c) const noexcept {
  for (const auto& piece : pieces_) {
    if (t < piece.count) return piece.segment->channel(c)[piece.first + t];
    t -= piece.count;
  }
  return 0.0;  // out of range; bounds are the caller's contract
}

void WindowView::gather(nn::Matrix& out) const {
  if (out.rows() != rows_ || out.cols() != cols_) {
    out = nn::Matrix(rows_, cols_);
  }
  std::size_t row_base = 0;
  for (const auto& piece : pieces_) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const auto col = piece.segment->channel(c).subspan(piece.first, piece.count);
      for (std::size_t i = 0; i < piece.count; ++i) {
        out(row_base + i, c) = col[i];
      }
    }
    row_base += piece.count;
  }
}

nn::Matrix WindowView::materialize() const {
  nn::Matrix out(rows_, cols_);
  gather(out);
  return out;
}

// --- ColumnStore -------------------------------------------------------------

namespace {

/// Entity names become directory names under the store root, so they must
/// be safe path components.
void validate_entity_name(std::string_view entity) {
  if (entity.empty() || entity == "." || entity == ".." ||
      entity.find('/') != std::string_view::npos ||
      entity.find('\\') != std::string_view::npos) {
    throw PreconditionError("invalid entity name for column store: '" +
                            std::string(entity) + "'");
  }
}

constexpr const char* kSegmentPrefix = "seg_";
constexpr const char* kSegmentSuffix = ".col";

/// Appends a newly sealed segment. Its predecessor goes cold: windows that
/// straddle into the active segment reach back only into the newest sealed
/// one, so the older segment's pages are released.
void push_sealed(std::vector<std::shared_ptr<const Segment>>& sealed,
                 std::shared_ptr<const Segment> segment) {
  if (!sealed.empty()) sealed.back()->release_pages();
  sealed.push_back(std::move(segment));
}

}  // namespace

ColumnStore::ColumnStore(ColumnStoreConfig config, std::size_t num_channels)
    : config_(std::move(config)), channels_(num_channels) {
  GO_EXPECTS(channels_ > 0);
  GO_EXPECTS(config_.segment_capacity > 0);
  if (config_.root.empty()) return;
  std::filesystem::create_directories(config_.root);
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(config_.root)) {
    if (entry.is_directory()) names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  for (const auto& name : names) load_entity(name);
}

std::filesystem::path ColumnStore::entity_dir(std::string_view entity) const {
  return config_.root / std::filesystem::path(std::string(entity));
}

std::filesystem::path ColumnStore::segment_path(const std::filesystem::path& dir,
                                                std::size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%06zu%s", kSegmentPrefix, index, kSegmentSuffix);
  return dir / name;
}

void ColumnStore::load_entity(const std::string& entity) {
  validate_entity_name(entity);
  const std::filesystem::path dir = entity_dir(entity);
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with(kSegmentPrefix) && name.ends_with(kSegmentSuffix)) {
      files.push_back(entry.path());
    }
  }
  if (files.empty()) return;
  std::sort(files.begin(), files.end());

  EntityColumns columns;
  std::uint64_t expected_start = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i] != segment_path(dir, i)) {
      throw SerializationError("segment chain has a gap: expected " +
                               segment_path(dir, i).string() + ", found " +
                               files[i].string());
    }
    auto segment = Segment::load(files[i], channels_, config_.mmap_reads);
    if (segment->start_tick() != expected_start) {
      throw SerializationError("segment chain discontinuity in " + files[i].string() +
                               ": starts at tick " + std::to_string(segment->start_tick()) +
                               ", expected " + std::to_string(expected_start));
    }
    if (i + 1 < files.size() && segment->count() != segment->capacity()) {
      throw SerializationError("non-final segment is partial (corrupt chain): " +
                               files[i].string());
    }
    expected_start += segment->count();
    const bool final_partial =
        i + 1 == files.size() && segment->count() < segment->capacity();
    if (final_partial) {
      // Resume appending where the trace left off: copy the partial tail
      // into a writable segment (mapped segments are immutable).
      auto active = std::make_shared<Segment>(channels_, config_.segment_capacity,
                                              segment->start_tick());
      std::vector<double> tick(channels_);
      for (std::size_t t = 0; t < segment->count(); ++t) {
        for (std::size_t c = 0; c < channels_; ++c) tick[c] = segment->channel(c)[t];
        active->append(tick, segment->regime(t));
      }
      columns.active = std::move(active);
    } else {
      push_sealed(columns.sealed, std::move(segment));
    }
  }
  columns.total_ticks = expected_start;
  entities_.emplace(entity, std::move(columns));
}

void ColumnStore::append(std::string_view entity, std::span<const double> values,
                         Regime regime) {
  GO_EXPECTS(values.size() == channels_);
  validate_entity_name(entity);
  std::unique_lock lock(mutex_);
  auto it = entities_.find(entity);
  if (it == entities_.end()) {
    it = entities_.emplace(std::string(entity), EntityColumns{}).first;
  }
  EntityColumns& columns = it->second;
  if (!columns.active) {
    columns.active = std::make_shared<Segment>(channels_, config_.segment_capacity,
                                               columns.total_ticks);
  }
  columns.active->append(values, regime);
  ++columns.total_ticks;
  if (columns.active->full()) seal_active(it->first, columns);
}

void ColumnStore::append_block(std::string_view entity, const nn::Matrix& ticks,
                               std::span<const Regime> regimes) {
  GO_EXPECTS(ticks.rows() == regimes.size());
  GO_EXPECTS(ticks.empty() || ticks.cols() == channels_);
  for (std::size_t t = 0; t < ticks.rows(); ++t) {
    append(entity, ticks.row(t), regimes[t]);
  }
}

void ColumnStore::seal_active(const std::string& entity, EntityColumns& columns) {
  if (!config_.root.empty()) {
    const auto path = segment_path(entity_dir(entity), columns.sealed.size());
    columns.active->save(path);
    // Swap in the mapped twin. Any WindowView still holding the writable
    // segment keeps it alive through its shared_ptr; new views read the
    // (bitwise-identical) file-backed columns.
    push_sealed(columns.sealed, Segment::load(path, channels_, config_.mmap_reads));
  } else {
    push_sealed(columns.sealed, columns.active);
  }
  columns.active = nullptr;
}

std::uint64_t ColumnStore::ticks(std::string_view entity) const {
  std::shared_lock lock(mutex_);
  const auto it = entities_.find(entity);
  return it == entities_.end() ? 0 : it->second.total_ticks;
}

std::vector<std::string> ColumnStore::entity_names() const {
  std::shared_lock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(entities_.size());
  for (const auto& [name, _] : entities_) names.push_back(name);
  return names;
}

WindowView ColumnStore::cut_window(const EntityColumns& columns, std::uint64_t end_tick,
                                   std::size_t seq_len) const {
  if (end_tick >= columns.total_ticks) {
    throw PreconditionError("window end tick " + std::to_string(end_tick) +
                            " past stored history (" +
                            std::to_string(columns.total_ticks) + " ticks)");
  }
  if (end_tick + 1 < seq_len) {
    throw PreconditionError("window of " + std::to_string(seq_len) +
                            " ticks ending at tick " + std::to_string(end_tick) +
                            " would start before tick 0");
  }
  const std::uint64_t first = end_tick + 1 - seq_len;

  WindowView view;
  view.rows_ = seq_len;
  view.cols_ = channels_;
  view.end_tick_ = end_tick;

  std::uint64_t tick = first;
  const auto add_from = [&](std::shared_ptr<const Segment> segment) {
    if (tick > end_tick) return;
    const std::uint64_t seg_end = segment->start_tick() + segment->count();
    if (seg_end <= tick || segment->start_tick() > end_tick) return;
    const std::size_t first_in = static_cast<std::size_t>(tick - segment->start_tick());
    const std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(end_tick + 1, seg_end) - tick);
    view.pieces_.push_back(WindowView::Piece{std::move(segment), first_in, take});
    tick += take;
  };
  // Skip segments entirely before the window, then take pieces in order.
  auto it = std::partition_point(
      columns.sealed.begin(), columns.sealed.end(),
      [&](const auto& s) { return s->start_tick() + s->count() <= first; });
  for (; it != columns.sealed.end() && tick <= end_tick; ++it) add_from(*it);
  if (columns.active) add_from(columns.active);
  GO_ENSURES(tick == end_tick + 1);

  const auto& last = view.pieces_.back();
  view.regime_ = last.segment->regime(last.first + last.count - 1);
  return view;
}

WindowView ColumnStore::window_at(std::string_view entity, std::uint64_t end_tick,
                                  std::size_t seq_len) const {
  GO_EXPECTS(seq_len > 0);
  std::shared_lock lock(mutex_);
  const auto it = entities_.find(entity);
  if (it == entities_.end()) {
    throw PreconditionError("unknown entity in column store: '" + std::string(entity) + "'");
  }
  return cut_window(it->second, end_tick, seq_len);
}

std::vector<WindowView> ColumnStore::latest_windows(std::string_view entity,
                                                    std::size_t seq_len,
                                                    std::size_t count) const {
  GO_EXPECTS(seq_len > 0);
  GO_EXPECTS(count > 0);
  std::shared_lock lock(mutex_);
  const auto it = entities_.find(entity);
  if (it == entities_.end()) {
    throw PreconditionError("unknown entity in column store: '" + std::string(entity) + "'");
  }
  const EntityColumns& columns = it->second;
  const std::uint64_t needed = seq_len + count - 1;
  if (columns.total_ticks < needed) {
    throw PreconditionError("entity '" + std::string(entity) + "' holds " +
                            std::to_string(columns.total_ticks) + " ticks, " +
                            std::to_string(needed) + " needed for " +
                            std::to_string(count) + " window(s) of " +
                            std::to_string(seq_len));
  }
  std::vector<WindowView> views;
  views.reserve(count);
  for (std::uint64_t end = columns.total_ticks - count; end < columns.total_ticks; ++end) {
    views.push_back(cut_window(columns, end, seq_len));
  }
  return views;
}

void ColumnStore::flush() {
  if (config_.root.empty()) return;
  std::unique_lock lock(mutex_);
  for (const auto& [entity, columns] : entities_) {
    if (columns.active && columns.active->count() > 0) {
      columns.active->save(segment_path(entity_dir(entity), columns.sealed.size()));
    }
  }
}

ColumnStore::Stats ColumnStore::stats() const {
  std::shared_lock lock(mutex_);
  Stats s;
  s.entities = entities_.size();
  for (const auto& [_, columns] : entities_) {
    s.ticks += columns.total_ticks;
    s.segments += columns.sealed.size() + (columns.active ? 1 : 0);
    for (const auto& segment : columns.sealed) s.bytes_mapped += segment->mapped_bytes();
  }
  return s;
}

}  // namespace goodones::data
