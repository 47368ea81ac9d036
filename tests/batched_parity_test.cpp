// Pins the batched inference path to the per-probe reference: batched
// predictions must match scalar predict() within 1e-12, and the search
// must produce exactly the same AttackResult (decisions, numbers and
// probe count) on the real batched model as on a predict-only wrapper whose
// predict_batch is Forecaster's default loop over predict(), on the BGMS
// regression fixture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "attack/campaign.hpp"
#include "attack/evasion.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/lstm.hpp"
#include "data/timeseries.hpp"
#include "data/window.hpp"
#include "domains/bgms/cohort.hpp"
#include "domains/bgms/patient.hpp"
#include "predict/bilstm_forecaster.hpp"

namespace goodones {
namespace {

struct Fixture {
  std::vector<data::Window> windows;
  std::unique_ptr<predict::BiLstmForecaster> model;

  Fixture() {
    bgms::CohortConfig cohort;
    cohort.train_steps = 800;
    cohort.test_steps = 260;
    cohort.seed = 5;
    const auto trace = bgms::generate_patient({bgms::Subset::kA, 1}, cohort);
    const auto train_series = bgms::to_series(trace.train);

    predict::ForecasterConfig config;
    config.hidden = 12;
    config.head_hidden = 8;
    config.epochs = 3;
    config.seed = 33;
    model = std::make_unique<predict::BiLstmForecaster>(
        config, predict::fit_forecaster_scaler(train_series.values, bgms::kCgm,
                                               bgms::kMinGlucose, bgms::kMaxGlucose));
    data::WindowConfig window_config;
    window_config.step = 3;
    model->train(data::make_windows(train_series, window_config));
    windows = data::make_windows(bgms::to_series(trace.test), window_config);
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

/// The per-probe reference: forwards only predict(), so every predict_batch
/// call takes Forecaster's default loop over predict() while the search code
/// under test stays the same.
class PredictOnly final : public predict::Forecaster {
 public:
  explicit PredictOnly(const predict::Forecaster& model) : model_(model) {}
  double predict(const nn::Matrix& x) const override { return model_.predict(x); }

 private:
  const predict::Forecaster& model_;
};

void expect_same_decisions(const attack::AttackResult& reference,
                           const attack::AttackResult& batched) {
  EXPECT_EQ(reference.success, batched.success);
  EXPECT_EQ(reference.edits, batched.edits);
  EXPECT_EQ(reference.probes, batched.probes);
  EXPECT_EQ(reference.benign_prediction, batched.benign_prediction);
  EXPECT_EQ(reference.adversarial_prediction, batched.adversarial_prediction);
  ASSERT_TRUE(reference.adversarial_features.same_shape(batched.adversarial_features));
  for (std::size_t t = 0; t < reference.adversarial_features.rows(); ++t) {
    for (std::size_t c = 0; c < reference.adversarial_features.cols(); ++c) {
      ASSERT_EQ(reference.adversarial_features(t, c), batched.adversarial_features(t, c))
          << "t=" << t << " c=" << c;
    }
  }
}

TEST(BatchedParity, PredictBatchMatchesScalarOnBenignWindows) {
  const auto& f = fixture();
  std::vector<nn::Matrix> batch;
  for (std::size_t i = 0; i < std::min<std::size_t>(f.windows.size(), 24); ++i) {
    batch.push_back(f.windows[i].features);
  }
  const auto batched = f.model->predict_batch(batch);
  ASSERT_EQ(batched.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_NEAR(batched[i], f.model->predict(batch[i]), 1e-12) << "window " << i;
  }
}

TEST(BatchedParity, PredictBatchMatchesScalarOnProbeBatches) {
  // Probe-shaped batches: copies of one window with a single edited
  // timestep, exactly what the greedy searches enqueue.
  const auto& f = fixture();
  const nn::Matrix& base = f.windows[7].features;
  for (const std::size_t t : {base.rows() - 1, base.rows() / 2, std::size_t{0}}) {
    std::vector<nn::Matrix> probes(6, base);
    for (std::size_t vi = 0; vi < probes.size(); ++vi) {
      probes[vi](t, bgms::kCgm) = 150.0 + 50.0 * static_cast<double>(vi);
    }
    const auto batched = f.model->predict_batch(probes);
    for (std::size_t vi = 0; vi < probes.size(); ++vi) {
      EXPECT_NEAR(batched[vi], f.model->predict(probes[vi]), 1e-12)
          << "t=" << t << " vi=" << vi;
    }
  }
}

TEST(BatchedParity, AttackResultsIdenticalWithAndWithoutBatching) {
  const auto& f = fixture();
  const PredictOnly reference(*f.model);
  const attack::EvasionAttack attack(attack::AttackConfig{});
  std::vector<const data::Window*> attacked;
  std::vector<attack::AttackResult> solo;
  for (std::size_t i = 0; i < f.windows.size() && attacked.size() < 20; i += 2) {
    attacked.push_back(&f.windows[i]);
    solo.push_back(attack.attack_window(*f.model, f.windows[i]));
    expect_same_decisions(attack.attack_window(reference, f.windows[i]), solo.back());
  }
  ASSERT_FALSE(attacked.empty());

  // All windows in one lockstep attack_windows call must decide exactly as
  // one window at a time.
  std::vector<attack::AttackResult> together(attacked.size());
  attack.attack_windows(*f.model, attacked, together);
  for (std::size_t i = 0; i < attacked.size(); ++i) expect_same_decisions(solo[i], together[i]);
}

TEST(BatchedParity, CampaignOutcomesIdenticalWithAndWithoutBatching) {
  const auto& f = fixture();
  const PredictOnly reference_model(*f.model);
  attack::CampaignConfig reference_config;
  reference_config.window_step = 2;
  attack::CampaignConfig batched_config = reference_config;
  batched_config.shard_size = 3;  // sharding must not change outcomes either

  common::ThreadPool pool(4);
  const auto reference =
      attack::run_campaign(reference_model, f.windows, reference_config, pool);
  const auto batched = attack::run_campaign(*f.model, f.windows, batched_config, pool);
  ASSERT_EQ(reference.size(), batched.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_same_decisions(reference[i].attack, batched[i].attack);
    EXPECT_EQ(reference[i].true_state, batched[i].true_state);
    EXPECT_EQ(reference[i].adversarial_predicted_state,
              batched[i].adversarial_predicted_state);
  }
}

TEST(BatchedParity, CrossWindowMergedBatchMatchesPerWindowBatches) {
  // The lockstep campaign driver merges several base windows' probe sets
  // into one predict_batch call. Every merged prediction must be bitwise
  // identical to what the same probes produce in per-window calls.
  const auto& f = fixture();
  const std::size_t bases[] = {3, 9, 14};
  const double values[] = {40.0, 120.0, 250.0, 380.0};

  std::vector<std::vector<nn::Matrix>> per_window;
  std::vector<nn::Matrix> merged;
  for (const std::size_t b : bases) {
    ASSERT_LT(b, f.windows.size());
    const nn::Matrix& base = f.windows[b].features;
    std::vector<nn::Matrix> probes;
    for (std::size_t t = base.rows() - 3; t < base.rows(); ++t) {
      for (const double value : values) {
        probes.push_back(base);
        probes.back()(t, 0) = value;
      }
    }
    merged.insert(merged.end(), probes.begin(), probes.end());
    per_window.push_back(std::move(probes));
  }

  const std::vector<double> merged_preds = f.model->predict_batch(merged);
  ASSERT_EQ(merged_preds.size(), merged.size());
  std::size_t offset = 0;
  for (std::size_t w = 0; w < per_window.size(); ++w) {
    const std::vector<double> solo = f.model->predict_batch(per_window[w]);
    for (std::size_t vi = 0; vi < solo.size(); ++vi) {
      EXPECT_EQ(merged_preds[offset + vi], solo[vi]) << "base=" << bases[w] << " vi=" << vi;
    }
    offset += solo.size();
  }
  EXPECT_EQ(offset, merged_preds.size());
}

TEST(BatchedParity, CampaignOutcomesIdenticalWithAndWithoutCrossWindowMerge) {
  // One window per shard runs each search alone; four per shard merge their
  // probes into one predict_batch per lockstep round.
  const auto& f = fixture();
  attack::CampaignConfig merged_config;
  merged_config.window_step = 2;
  merged_config.shard_size = 4;
  attack::CampaignConfig per_window_config = merged_config;
  per_window_config.shard_size = 1;

  common::ThreadPool pool(4);
  const auto merged = attack::run_campaign(*f.model, f.windows, merged_config, pool);
  const auto solo = attack::run_campaign(*f.model, f.windows, per_window_config, pool);
  ASSERT_EQ(merged.size(), solo.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    expect_same_decisions(solo[i].attack, merged[i].attack);
    EXPECT_EQ(solo[i].true_state, merged[i].true_state);
    EXPECT_EQ(solo[i].adversarial_predicted_state, merged[i].adversarial_predicted_state);
  }
}

// --- randomized PrefixState property coverage -------------------------------
//
// The fixture tests above pin the batched path on realistic BGMS windows;
// these push the PrefixState/advance/run_batch contract into randomized
// space: for arbitrary (seeded) window lengths, prefix split points and
// batch sizes, resuming from a snapshot must match a fresh run from t = 0
// within 1e-12.

nn::Matrix random_sequence(std::size_t rows, std::size_t cols, common::Rng& rng) {
  nn::Matrix m(rows, cols);
  for (std::size_t t = 0; t < rows; ++t) {
    for (double& v : m.row(t)) v = rng.uniform(-1.5, 1.5);
  }
  return m;
}

/// run_batch with every sequence resuming from the same snapshot.
nn::Matrix run_from(const nn::Lstm& lstm, const std::vector<nn::Matrix>& sequences,
                    const nn::Lstm::PrefixState& state, std::size_t first_row) {
  std::vector<const nn::Matrix*> seqs;
  for (const nn::Matrix& seq : sequences) seqs.push_back(&seq);
  const std::vector<const nn::Lstm::PrefixState*> starts(seqs.size(), &state);
  return lstm.run_batch(seqs, starts, first_row);
}

TEST(PrefixStateProperty, AdvanceFromSnapshotMatchesFreshRun) {
  common::Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 60; ++trial) {
    const auto input_dim = static_cast<std::size_t>(rng.uniform_int(1, 5));
    const auto hidden_dim = static_cast<std::size_t>(rng.uniform_int(1, 16));
    const auto seq_len = static_cast<std::size_t>(rng.uniform_int(2, 20));
    const auto split = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(seq_len)));
    const auto batch = static_cast<std::size_t>(rng.uniform_int(1, 7));

    nn::Lstm lstm(input_dim, hidden_dim, rng);

    // Batch of sequences sharing rows [0, split); random tails.
    const nn::Matrix base = random_sequence(seq_len, input_dim, rng);
    std::vector<nn::Matrix> sequences(batch, base);
    for (auto& seq : sequences) {
      for (std::size_t t = split; t < seq_len; ++t) {
        for (double& v : seq.row(t)) v = rng.uniform(-1.5, 1.5);
      }
    }

    // Snapshot after the shared prefix, then batch-resume from it.
    nn::Lstm::PrefixState state = lstm.initial_state();
    if (split > 0) {
      nn::Matrix prefix(split, input_dim);
      for (std::size_t t = 0; t < split; ++t) {
        const auto src = base.row(t);
        std::copy(src.begin(), src.end(), prefix.row(t).begin());
      }
      lstm.advance(state, prefix);
    }
    EXPECT_EQ(state.steps, split);
    const nn::Matrix finals = run_from(lstm, sequences, state, split);

    ASSERT_EQ(finals.rows(), batch);
    for (std::size_t b = 0; b < batch; ++b) {
      const nn::Matrix reference = lstm.forward(sequences[b]);
      for (std::size_t h = 0; h < hidden_dim; ++h) {
        EXPECT_NEAR(finals(b, h), reference(seq_len - 1, h), 1e-12)
            << "trial=" << trial << " split=" << split << " b=" << b << " h=" << h;
      }
    }
  }
}

TEST(PrefixStateProperty, ChunkedAdvanceMatchesSingleAdvance) {
  // advance() must compose: consuming a sequence in arbitrary random chunks
  // reaches exactly the state of consuming it in one shot.
  common::Rng rng(0xFACADE);
  for (int trial = 0; trial < 40; ++trial) {
    const auto input_dim = static_cast<std::size_t>(rng.uniform_int(1, 4));
    const auto hidden_dim = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const auto seq_len = static_cast<std::size_t>(rng.uniform_int(1, 18));
    nn::Lstm lstm(input_dim, hidden_dim, rng);
    const nn::Matrix sequence = random_sequence(seq_len, input_dim, rng);

    nn::Lstm::PrefixState whole = lstm.initial_state();
    lstm.advance(whole, sequence);

    nn::Lstm::PrefixState chunked = lstm.initial_state();
    std::size_t consumed = 0;
    while (consumed < seq_len) {
      const auto remaining = static_cast<std::int64_t>(seq_len - consumed);
      const auto chunk = static_cast<std::size_t>(rng.uniform_int(1, remaining));
      nn::Matrix block(chunk, input_dim);
      for (std::size_t t = 0; t < chunk; ++t) {
        const auto src = sequence.row(consumed + t);
        std::copy(src.begin(), src.end(), block.row(t).begin());
      }
      lstm.advance(chunked, block);
      consumed += chunk;
    }

    ASSERT_EQ(chunked.steps, whole.steps);
    for (std::size_t h = 0; h < hidden_dim; ++h) {
      // Chunking must be bit-identical: the same additions happen in the
      // same order regardless of how the rows are grouped.
      EXPECT_EQ(chunked.hidden[h], whole.hidden[h]) << "trial=" << trial;
      EXPECT_EQ(chunked.cell[h], whole.cell[h]) << "trial=" << trial;
    }
  }
}

TEST(PrefixStateProperty, FullPrefixReplicatesSnapshot) {
  // first_row == rows(): every sequence is entirely shared; run_batch must
  // return the snapshot state replicated per sequence.
  common::Rng rng(0xBEEF);
  nn::Lstm lstm(3, 8, rng);
  const nn::Matrix base = random_sequence(10, 3, rng);
  std::vector<nn::Matrix> sequences(4, base);

  nn::Lstm::PrefixState state = lstm.initial_state();
  lstm.advance(state, base);
  const nn::Matrix finals = run_from(lstm, sequences, state, base.rows());
  ASSERT_EQ(finals.rows(), sequences.size());
  for (std::size_t b = 0; b < sequences.size(); ++b) {
    for (std::size_t h = 0; h < lstm.hidden_dim(); ++h) {
      EXPECT_EQ(finals(b, h), state.hidden[h]);
    }
  }
}

TEST(BatchedParity, ProbeAccountingCountsWholeBatches) {
  // Not a timing test (CI noise), but the probe accounting must show the
  // batched path actually batching: ordered greedy issues the benign
  // baseline plus whole value_candidates-sized batches per probed position.
  const auto& f = fixture();
  const attack::AttackConfig config;
  const attack::EvasionAttack attack(config);
  const auto result = attack.attack_window(*f.model, f.windows[1]);
  ASSERT_GE(result.probes, 1u);  // at least the benign baseline
  EXPECT_EQ((result.probes - 1) % config.value_candidates, 0u);
}

}  // namespace
}  // namespace goodones
