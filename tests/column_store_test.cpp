// Edge-case coverage for the columnar telemetry store: segment roll-over at
// exact capacity, persist → reopen bitwise identity, WindowViews outliving
// reopen and destruction of the store that cut them, typed
// SerializationError on truncated/corrupt/foreign segment files (never a
// crash), and mmap-vs-read-fallback byte equality. Window BYTE parity
// against data::make_windows runs across all three registered domains —
// combined with the shared scoring core, that is what makes
// WindowView-vs-materialized-Window scoring parity hold fleet-wide (the
// serving-level half lives in serve_ingest_test.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "data/column_store.hpp"
#include "data/window.hpp"
#include "domains/registry.hpp"

namespace goodones::data {
namespace {

/// Deterministic, channel- and tick-dependent value so any misplaced byte
/// shows up as a wrong double somewhere.
double tick_value(std::uint64_t tick, std::size_t channel) {
  return static_cast<double>(tick) * 1000.0 + static_cast<double>(channel) + 0.25;
}

Regime tick_regime(std::uint64_t tick) {
  return tick % 3 == 0 ? Regime::kActive : Regime::kBaseline;
}

void append_ticks(ColumnStore& store, const std::string& entity, std::uint64_t first,
                  std::uint64_t count) {
  std::vector<double> values(store.num_channels());
  for (std::uint64_t tick = first; tick < first + count; ++tick) {
    for (std::size_t c = 0; c < values.size(); ++c) values[c] = tick_value(tick, c);
    store.append(entity, values, tick_regime(tick));
  }
}

void expect_window(const WindowView& view, std::uint64_t end_tick, std::size_t seq_len,
                   std::size_t channels) {
  ASSERT_EQ(view.rows(), seq_len);
  ASSERT_EQ(view.cols(), channels);
  EXPECT_EQ(view.end_tick(), end_tick);
  EXPECT_EQ(view.regime(), tick_regime(end_tick));
  const std::uint64_t first = end_tick + 1 - seq_len;
  for (std::size_t t = 0; t < seq_len; ++t) {
    for (std::size_t c = 0; c < channels; ++c) {
      ASSERT_EQ(view.at(t, c), tick_value(first + t, c)) << "t=" << t << " c=" << c;
    }
  }
  // gather/materialize must reproduce exactly the bytes at() reads.
  const nn::Matrix gathered = view.materialize();
  ASSERT_EQ(gathered.rows(), seq_len);
  ASSERT_EQ(gathered.cols(), channels);
  for (std::size_t t = 0; t < seq_len; ++t) {
    for (std::size_t c = 0; c < channels; ++c) {
      ASSERT_EQ(gathered(t, c), view.at(t, c));
    }
  }
}

std::filesystem::path scratch_root(const std::string& name) {
  const auto root = std::filesystem::temp_directory_path() / ("goodones_colstore_" + name);
  std::filesystem::remove_all(root);
  return root;
}

TEST(ColumnStore, RollOverAtExactCapacity) {
  ColumnStoreConfig config;
  config.segment_capacity = 8;
  ColumnStore store(config, 2);

  // Exactly one capacity: one sealed segment, no active remainder.
  append_ticks(store, "E", 0, 8);
  EXPECT_EQ(store.ticks("E"), 8u);
  EXPECT_EQ(store.stats().segments, 1u);

  // One more tick rolls into a fresh segment; windows spanning the boundary
  // stitch pieces from both.
  append_ticks(store, "E", 8, 9);
  EXPECT_EQ(store.ticks("E"), 17u);
  EXPECT_EQ(store.stats().segments, 3u);  // two sealed + the active remainder

  const WindowView straddling = store.window_at("E", 9, 6);  // ticks 4..9
  EXPECT_EQ(straddling.num_pieces(), 2u);
  expect_window(straddling, 9, 6, 2);
  expect_window(store.window_at("E", 16, 12), 16, 12, 2);  // three segments
}

TEST(ColumnStore, LatestWindowsAreStride1NewestLast) {
  ColumnStoreConfig config;
  config.segment_capacity = 16;
  ColumnStore store(config, 3);
  append_ticks(store, "E", 0, 20);

  const std::vector<WindowView> views = store.latest_windows("E", 4, 3);
  ASSERT_EQ(views.size(), 3u);
  expect_window(views[0], 17, 4, 3);
  expect_window(views[1], 18, 4, 3);
  expect_window(views[2], 19, 4, 3);
}

TEST(ColumnStore, PreconditionErrorsAreTyped) {
  ColumnStoreConfig config;
  ColumnStore store(config, 2);
  append_ticks(store, "E", 0, 5);

  EXPECT_THROW((void)store.window_at("E", 1, 4), common::PreconditionError);   // underflow
  EXPECT_THROW((void)store.window_at("E", 5, 2), common::PreconditionError);   // past end
  EXPECT_THROW((void)store.window_at("NOPE", 3, 2), common::PreconditionError);
  EXPECT_THROW((void)store.latest_windows("E", 4, 3), common::PreconditionError);
  EXPECT_THROW((void)store.window_at("E", 3, 0), common::PreconditionError);
  const std::vector<double> wrong_width = {1.0};
  EXPECT_THROW(store.append("E", wrong_width, Regime::kBaseline),
               common::PreconditionError);
  const std::vector<double> ok = {1.0, 2.0};
  EXPECT_THROW(store.append("", ok, Regime::kBaseline), common::PreconditionError);
  EXPECT_THROW(store.append("a/b", ok, Regime::kBaseline), common::PreconditionError);
  EXPECT_THROW(store.append("..", ok, Regime::kBaseline), common::PreconditionError);
}

TEST(ColumnStore, PersistReopenBitwiseIdenticalAndViewOutlivesReopen) {
  const auto root = scratch_root("reopen");
  ColumnStoreConfig config;
  config.root = root;
  config.segment_capacity = 8;

  WindowView survivor;
  {
    ColumnStore store(config, 2);
    append_ticks(store, "E", 0, 21);  // two sealed segments + partial active
    store.flush();
    survivor = store.window_at("E", 20, 12);
  }
  // The store that cut it is gone; the view still pins its segments.
  expect_window(survivor, 20, 12, 2);

  ColumnStore reopened(config, 2);
  EXPECT_EQ(reopened.ticks("E"), 21u);
  EXPECT_EQ(reopened.entity_names(), std::vector<std::string>{"E"});
  for (std::uint64_t end = 11; end < 21; ++end) {
    expect_window(reopened.window_at("E", end, 12), end, 12, 2);
  }
  // The reopened partial segment resumes appending where it left off.
  append_ticks(reopened, "E", 21, 4);
  expect_window(reopened.window_at("E", 24, 12), 24, 12, 2);

  std::filesystem::remove_all(root);
}

TEST(ColumnStore, MmapAndReadFallbackBitwiseEqual) {
  const auto root = scratch_root("fallback");
  ColumnStoreConfig config;
  config.root = root;
  config.segment_capacity = 8;
  {
    ColumnStore store(config, 3);
    append_ticks(store, "E", 0, 16);
  }

  ColumnStore mapped(config, 3);
  ColumnStoreConfig no_mmap = config;
  no_mmap.mmap_reads = false;
  ColumnStore slurped(no_mmap, 3);
  EXPECT_EQ(slurped.stats().bytes_mapped, mapped.stats().bytes_mapped);
  for (std::uint64_t end = 5; end < 16; ++end) {
    const nn::Matrix a = mapped.window_at("E", end, 6).materialize();
    const nn::Matrix b = slurped.window_at("E", end, 6).materialize();
    for (std::size_t t = 0; t < a.rows(); ++t) {
      for (std::size_t c = 0; c < a.cols(); ++c) ASSERT_EQ(a(t, c), b(t, c));
    }
  }
  std::filesystem::remove_all(root);
}

TEST(ColumnStore, ColdSegmentsReadBitwiseIdentical) {
  // A sealed segment's pages are released once a newer sealed segment
  // exists (at the next seal, and on reopen for all but the newest). Reads
  // that reach back into it must still return the same bytes.
  for (const bool mmap : {true, false}) {
    SCOPED_TRACE(mmap ? "mmap" : "read fallback");
    const auto root = scratch_root(mmap ? "cold_mmap" : "cold_read");
    ColumnStoreConfig config;
    config.root = root;
    config.segment_capacity = 8;
    config.mmap_reads = mmap;
    const auto expect_same = [](const nn::Matrix& a, const nn::Matrix& b) {
      ASSERT_TRUE(a.same_shape(b));
      for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a.data()[i], b.data()[i]) << i;
    };

    std::vector<nn::Matrix> hot;  // ticks 2..7, 5..10 and 13..18, read while hot
    {
      ColumnStore store(config, 2);
      append_ticks(store, "E", 0, 12);  // segment 0 sealed (newest), 8..11 active
      const WindowView inside = store.window_at("E", 7, 6);
      const WindowView across = store.window_at("E", 10, 6);
      hot.push_back(inside.materialize());
      hot.push_back(across.materialize());

      append_ticks(store, "E", 12, 8);  // seals segment 1: segment 0 goes cold
      expect_same(inside.materialize(), hot[0]);  // views cut before...
      expect_same(across.materialize(), hot[1]);
      expect_same(store.window_at("E", 7, 6).materialize(), hot[0]);  // ...and after
      expect_same(store.window_at("E", 10, 6).materialize(), hot[1]);
      expect_window(store.window_at("E", 7, 6), 7, 6, 2);

      // Straddles the newest sealed segment (8..15) and the active one.
      const WindowView straddling = store.window_at("E", 18, 6);
      EXPECT_EQ(straddling.num_pieces(), 2u);
      expect_window(straddling, 18, 6, 2);
      hot.push_back(straddling.materialize());
      store.flush();
    }

    ColumnStore reopened(config, 2);  // segment 0 cold, segment 1 hot
    expect_same(reopened.window_at("E", 7, 6).materialize(), hot[0]);
    expect_same(reopened.window_at("E", 10, 6).materialize(), hot[1]);
    expect_same(reopened.window_at("E", 18, 6).materialize(), hot[2]);
    for (std::uint64_t end = 5; end < 20; ++end) {
      expect_window(reopened.window_at("E", end, 6), end, 6, 2);
    }
    std::filesystem::remove_all(root);
  }
}

TEST(ColumnStore, StatsTrackEntitiesTicksSegmentsAndMappedBytes) {
  const auto root = scratch_root("stats");
  ColumnStoreConfig config;
  config.root = root;
  config.segment_capacity = 4;
  ColumnStore store(config, 2);
  append_ticks(store, "A", 0, 9);
  append_ticks(store, "B", 0, 4);

  const ColumnStore::Stats stats = store.stats();
  EXPECT_EQ(stats.entities, 2u);
  EXPECT_EQ(stats.ticks, 13u);
  EXPECT_EQ(stats.segments, 4u);  // A: 2 sealed + active; B: 1 sealed
  // Three sealed files are mapped (header + columns + regimes + CRC each).
  EXPECT_GE(stats.bytes_mapped, 3u * (40 + 4 * 2 * 8 + 4 + 4));
  std::filesystem::remove_all(root);
}

class ColumnStoreCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = scratch_root("corrupt");
    config_.root = root_;
    config_.segment_capacity = 8;
    ColumnStore store(config_, 2);
    append_ticks(store, "E", 0, 8);  // exactly one sealed file
    segment_ = root_ / "E" / "seg_000000.col";
    ASSERT_TRUE(std::filesystem::exists(segment_));
  }

  void TearDown() override { std::filesystem::remove_all(root_); }

  std::vector<char> read_file() const {
    std::ifstream in(segment_, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  }

  void write_file(const std::vector<char>& bytes) const {
    std::ofstream out(segment_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path root_;
  std::filesystem::path segment_;
  ColumnStoreConfig config_;
};

TEST_F(ColumnStoreCorruption, TruncatedFileRaisesSerializationError) {
  std::vector<char> bytes = read_file();
  bytes.resize(bytes.size() / 2);
  write_file(bytes);
  EXPECT_THROW(ColumnStore(config_, 2), common::SerializationError);
}

TEST_F(ColumnStoreCorruption, FlippedPayloadByteFailsCrc) {
  std::vector<char> bytes = read_file();
  bytes[48] ^= 0x01;  // inside the first channel column
  write_file(bytes);
  EXPECT_THROW(ColumnStore(config_, 2), common::SerializationError);
}

TEST_F(ColumnStoreCorruption, BadMagicRaisesSerializationError) {
  std::vector<char> bytes = read_file();
  bytes[0] = 'X';
  write_file(bytes);
  EXPECT_THROW(ColumnStore(config_, 2), common::SerializationError);
}

TEST_F(ColumnStoreCorruption, ChannelMismatchRaisesSerializationError) {
  EXPECT_THROW(ColumnStore(config_, 3), common::SerializationError);
}

TEST_F(ColumnStoreCorruption, EmptyFileRaisesSerializationError) {
  write_file({});
  EXPECT_THROW(ColumnStore(config_, 2), common::SerializationError);
}

TEST_F(ColumnStoreCorruption, MissingChainSegmentRaisesSerializationError) {
  // Grow a second sealed file, then delete the first: the chain has a gap.
  {
    ColumnStore store(config_, 2);
    append_ticks(store, "E", 8, 8);
  }
  ASSERT_TRUE(std::filesystem::exists(root_ / "E" / "seg_000001.col"));
  std::filesystem::remove(segment_);
  EXPECT_THROW(ColumnStore(config_, 2), common::SerializationError);
}

/// Byte parity across every registered domain: windows cut from a store
/// loaded with the domain's real telemetry are bitwise-identical to the
/// materialized data::make_windows features over the same series.
TEST(ColumnStore, WindowBytesMatchMakeWindowsAcrossDomains) {
  for (const std::string& name : domains::available_domains()) {
    SCOPED_TRACE(name);
    const auto domain = domains::make_domain(name);
    core::PopulationConfig population;
    population.train_steps = 40;
    population.test_steps = 80;
    population.seed = 13;
    std::vector<core::EntityData> entities = domain->make_entities(population);
    ASSERT_FALSE(entities.empty());
    if (entities.size() > 2) entities.resize(2);  // two per domain is plenty

    ColumnStoreConfig config;
    config.segment_capacity = 32;  // force straddling windows
    ColumnStore store(config, domain->spec().num_channels);
    WindowConfig window_config;
    window_config.seq_len = kDefaultSeqLen;
    window_config.step = 5;
    for (const core::EntityData& entity : entities) {
      store.append_block(entity.name, entity.test.values, entity.test.regimes);
      const std::vector<Window> reference =
          make_windows(entity.test, window_config);
      ASSERT_FALSE(reference.empty());
      for (const Window& window : reference) {
        const WindowView view =
            store.window_at(entity.name, window.end_index, window_config.seq_len);
        const nn::Matrix gathered = view.materialize();
        ASSERT_EQ(gathered.rows(), window.features.rows());
        ASSERT_EQ(gathered.cols(), window.features.cols());
        for (std::size_t t = 0; t < gathered.rows(); ++t) {
          for (std::size_t c = 0; c < gathered.cols(); ++c) {
            ASSERT_EQ(gathered(t, c), window.features(t, c))
                << entity.name << " end=" << window.end_index << " t=" << t
                << " c=" << c;
          }
        }
        // The view's regime is the last ROW's regime (prediction input);
        // make_windows records the regime horizon steps later. Pin the
        // view's own contract against the raw series instead.
        EXPECT_EQ(view.regime(), entity.test.regimes[window.end_index]);
      }
    }
  }
}

}  // namespace
}  // namespace goodones::data
