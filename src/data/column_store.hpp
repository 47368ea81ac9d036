// Columnar telemetry store: per-entity, per-channel append-only segments
// with zero-copy window views into the batched scorer.
//
// The serving path historically required every client to re-send full
// pre-cut windows in each Score frame. At fleet scale that spends the
// daemon's time deserializing redundant history bytes: consecutive windows
// share seq_len-1 of their seq_len rows. The ColumnStore inverts the
// ownership — clients stream raw ticks once (Ingest frames), the daemon
// appends them into columnar segments, and "score entity X now" cuts
// WindowViews straight over the stored columns without materializing
// data::Window copies.
//
// Layout and lifetime contract:
//  - Each entity owns a chain of fixed-capacity segments. A segment stores
//    its channels channel-major (each channel's values contiguous), plus a
//    per-tick regime byte. Writable segments preallocate their full
//    capacity up front, so appends NEVER reallocate — spans handed out by
//    WindowView stay valid for the life of the segment object.
//  - WindowView holds shared_ptr references to the segments it spans, so a
//    view outlives store mutations, segment seals, and even store
//    destruction or reopen.
//  - When a segment fills and the store has a root directory, it is sealed
//    to disk as `<root>/<entity>/seg_<index>.col` — a CRC-framed binary
//    format built from the nn/serialize stream conventions — and replaced
//    by an mmap-backed read-only twin (MappedSegment RAII over
//    mmap/munmap, with a read()-fallback). Reopening a root
//    directory restores every entity's history; a partial trailing segment
//    resumes appending where it left off.
//  - Loading a segment checks its CRC, which faults in every mapped page.
//    Once a newer sealed segment exists, the older one's pages are released
//    (MADV_DONTNEED), so resident memory stays flat however long the
//    history grows; the few reads that reach back re-fault from the page
//    cache.
//  - Corrupt or truncated segment files always raise
//    common::SerializationError, never crash, and leave the store empty.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/labels.hpp"
#include "nn/matrix.hpp"

namespace goodones::data {

struct ColumnStoreConfig {
  /// Root directory for sealed segments. Empty = memory-only store (nothing
  /// is ever persisted; flush() is a no-op).
  std::filesystem::path root;
  /// Ticks per segment. Sealing happens exactly at this boundary.
  std::size_t segment_capacity = 4096;
  /// Read sealed segments through mmap. When false (or when mmap fails at
  /// runtime), whole-file read() is used instead; bytes are identical.
  bool mmap_reads = true;
};

/// RAII memory-mapping of one segment file. Prefers mmap (the replay path
/// touches only the pages a window actually covers); falls back to reading
/// the whole file into a heap buffer when mmap is disabled or fails.
class MappedSegment {
 public:
  /// Maps (or reads) the entire file. Throws common::SerializationError if
  /// the file cannot be opened or is empty.
  MappedSegment(const std::filesystem::path& path, bool allow_mmap);
  ~MappedSegment();

  MappedSegment(const MappedSegment&) = delete;
  MappedSegment& operator=(const MappedSegment&) = delete;

  const std::byte* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }

  /// Drops the mapping's resident pages from the process (MADV_DONTNEED);
  /// later reads fault them back in from the page cache, byte-identical.
  /// No-op for the read() fallback.
  void release_pages() const noexcept;

 private:
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::vector<std::byte> fallback_;
};

/// One contiguous run of ticks for one entity: all channels plus regimes.
/// Either writable (preallocated in-memory columns) or sealed (pointers
/// into a MappedSegment). Shared-ptr owned so WindowViews can pin it.
class Segment {
 public:
  /// On-disk format constants ("GOCS" v1). Header is 40 bytes — a multiple
  /// of 8, so the mapped f64 columns that follow are naturally aligned.
  static constexpr std::uint32_t kMagic = 0x53434F47;  // "GOCS"
  static constexpr std::uint32_t kVersion = 1;

  /// Writable segment with fully preallocated storage.
  Segment(std::size_t channels, std::size_t capacity, std::uint64_t start_tick);

  /// Loads a sealed segment file (mmap or read() fallback). Validates
  /// magic, version, geometry, regime bytes and the trailing CRC; throws
  /// common::SerializationError on any mismatch.
  static std::shared_ptr<const Segment> load(const std::filesystem::path& path,
                                             std::size_t expected_channels,
                                             bool allow_mmap);

  /// Serializes header + columns + regimes + CRC and atomically replaces
  /// `path` (tmp file + rename). Valid at any fill level: flush() persists
  /// partial segments with count < capacity.
  void save(const std::filesystem::path& path) const;

  /// Appends one tick (one value per channel). Requires writable and not
  /// full. Never reallocates: outstanding channel spans stay valid.
  void append(std::span<const double> values, Regime regime);

  std::size_t channels() const noexcept { return channels_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t count() const noexcept { return count_; }
  std::uint64_t start_tick() const noexcept { return start_tick_; }
  bool full() const noexcept { return count_ == capacity_; }
  bool writable() const noexcept { return mapping_ == nullptr; }

  /// Contiguous values of channel `c`, ticks [start_tick, start_tick+count).
  std::span<const double> channel(std::size_t c) const noexcept;
  /// Regime of the i-th tick in this segment.
  Regime regime(std::size_t i) const noexcept;
  std::span<const std::uint8_t> regimes() const noexcept;

  /// Bytes held by the backing file mapping (0 for writable segments).
  std::size_t mapped_bytes() const noexcept { return mapping_ ? mapping_->size() : 0; }

  /// Lets a cold sealed segment stop counting in the process's resident
  /// memory (see MappedSegment::release_pages). No-op for writable segments.
  void release_pages() const noexcept {
    if (mapping_) mapping_->release_pages();
  }

 private:
  Segment() = default;

  std::size_t channels_ = 0;
  std::size_t capacity_ = 0;
  std::size_t count_ = 0;
  std::uint64_t start_tick_ = 0;

  // Writable storage: channel-major with `capacity_` stride, sized once at
  // construction. Sealed storage: raw pointers into `mapping_` with
  // `count_` stride (sealed files store exactly count ticks).
  std::vector<double> columns_;
  std::vector<std::uint8_t> regime_bytes_;
  std::shared_ptr<MappedSegment> mapping_;
  const double* mapped_columns_ = nullptr;
  const std::uint8_t* mapped_regimes_ = nullptr;
};

/// Zero-copy view of one seq_len-row window over stored columns. A window
/// may straddle a segment boundary, so the view is a short list of
/// contiguous per-segment pieces; each piece pins its segment via
/// shared_ptr, making the view safe past store reopen or destruction.
///
/// Consumers that need row-major features (the forecaster input layout)
/// call gather()/materialize() exactly once per scoring pass; everything
/// upstream of that point is copy-free.
class WindowView {
 public:
  WindowView() = default;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return rows_ == 0; }

  /// Tick index of the window's last row in the entity's series.
  std::uint64_t end_tick() const noexcept { return end_tick_; }
  /// Regime at prediction time (the window's last row).
  Regime regime() const noexcept { return regime_; }

  /// Value at (row t, channel c) of the window.
  double at(std::size_t t, std::size_t c) const noexcept;

  /// Number of contiguous pieces (1 unless the window straddles segments).
  std::size_t num_pieces() const noexcept { return pieces_.size(); }

  /// Fills `out` (resized to rows x cols) with the window's features
  /// row-major — the single copy on the view scoring path.
  void gather(nn::Matrix& out) const;
  /// gather() into a fresh matrix.
  nn::Matrix materialize() const;

 private:
  friend class ColumnStore;

  struct Piece {
    std::shared_ptr<const Segment> segment;
    std::size_t first = 0;  ///< first in-segment tick index
    std::size_t count = 0;  ///< rows taken from this segment
  };

  std::vector<Piece> pieces_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::uint64_t end_tick_ = 0;
  Regime regime_ = Regime::kBaseline;
};

/// The store. Thread-safe: appends take a unique lock, reads a shared
/// lock; handed-out WindowViews are immune to later mutations because
/// segment storage never moves and views pin their segments.
class ColumnStore {
 public:
  /// Opens (or creates) the store. With a non-empty root that already
  /// contains segments, the full history is restored; corrupt segment
  /// files raise common::SerializationError.
  ColumnStore(ColumnStoreConfig config, std::size_t num_channels);

  std::size_t num_channels() const noexcept { return channels_; }

  /// Appends one tick for `entity` (values.size() must equal
  /// num_channels()). Creates the entity on first touch. Seals + persists
  /// the active segment when it reaches capacity.
  void append(std::string_view entity, std::span<const double> values, Regime regime);

  /// Bulk append: `ticks` is (num_ticks x num_channels), `regimes` one per
  /// tick. Equivalent to num_ticks single appends.
  void append_block(std::string_view entity, const nn::Matrix& ticks,
                    std::span<const Regime> regimes);

  /// Total ticks stored for `entity` (0 if unknown).
  std::uint64_t ticks(std::string_view entity) const;
  std::vector<std::string> entity_names() const;

  /// The `count` most recent seq_len-row windows (stride 1, oldest first,
  /// newest last). Throws common::PreconditionError if the entity is
  /// unknown or holds fewer than seq_len + count - 1 ticks.
  std::vector<WindowView> latest_windows(std::string_view entity, std::size_t seq_len,
                                         std::size_t count) const;

  /// The window covering ticks [end_tick + 1 - seq_len, end_tick].
  WindowView window_at(std::string_view entity, std::uint64_t end_tick,
                       std::size_t seq_len) const;

  /// Persists every entity's partial active segment (durability point for
  /// recorded traces). No-op for a memory-only store.
  void flush();

  struct Stats {
    std::uint64_t entities = 0;
    std::uint64_t ticks = 0;
    std::uint64_t segments = 0;
    std::uint64_t bytes_mapped = 0;
  };
  Stats stats() const;

 private:
  struct EntityColumns {
    std::vector<std::shared_ptr<const Segment>> sealed;
    std::shared_ptr<Segment> active;  ///< null until first append past sealing
    std::uint64_t total_ticks = 0;
  };

  std::filesystem::path entity_dir(std::string_view entity) const;
  static std::filesystem::path segment_path(const std::filesystem::path& dir,
                                            std::size_t index);
  void seal_active(const std::string& entity, EntityColumns& columns);
  void load_entity(const std::string& entity);
  WindowView cut_window(const EntityColumns& columns, std::uint64_t end_tick,
                        std::size_t seq_len) const;

  ColumnStoreConfig config_;
  std::size_t channels_ = 0;
  std::map<std::string, EntityColumns, std::less<>> entities_;
  mutable std::shared_mutex mutex_;
};

}  // namespace goodones::data
