// End-to-end gate for the fast-math probe lane (nn::Precision::kFast),
// which campaign probes may run in (AttackConfig::probe_precision). Serving
// always forecasts in the exact lane.
//
// The polynomial gate kernels are pinned at the unit level (ulp sweeps and
// cross-lane bitwise agreement in nn_simd_test); this suite pins what the
// lane is allowed to do to DETECTION METRICS. For every registered domain
// (bgms, synthtel, av) a mini forecaster runs the same attack campaign with
// exact probes and with kFast probes, and the campaign-level metrics the
// defense is built on — per-cell attack success rates, risk-profile means —
// must agree within tight tolerances, while the re-verification contract
// keeps every REPORTED trajectory exact to the bit. The measured deltas
// print to the console; docs/BENCHMARKS.md transcribes them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "attack/campaign.hpp"
#include "common/thread_pool.hpp"
#include "core/domain.hpp"
#include "data/window.hpp"
#include "domains/av/adapter.hpp"
#include "domains/bgms/adapter.hpp"
#include "domains/synthtel/adapter.hpp"
#include "nn/simd.hpp"
#include "predict/bilstm_forecaster.hpp"
#include "risk/schedule.hpp"

namespace goodones {
namespace {

/// Exact-vs-fast campaign pair for one domain's mini fixture.
struct CampaignPair {
  std::string domain;
  risk::SeveritySchedule severity;  ///< copied: the adapter is a temporary
  std::vector<std::unique_ptr<predict::BiLstmForecaster>> models;
  std::vector<std::size_t> model_of;  ///< outcome index -> models index
  std::vector<attack::WindowOutcome> exact;
  std::vector<attack::WindowOutcome> fast;
};

/// Trains the most volatile entity of each subset (fleet parameter sweeps
/// order subsets from regulated to chaotic, so the subset tails are where
/// attacks actually land) and runs the same lockstep campaign through both
/// precision lanes, aggregating outcomes across the attacked entities.
/// Per-domain mini-fixture calibration. Mini forecasters are weak, so the
/// campaign needs a full edit budget, an aggressive (non-stealth) attacker
/// and a harm bar inside the band the attacks can actually reach —
/// otherwise both lanes report 0 == 0 and the gate is vacuous. Values were
/// calibrated so each domain sees a MIX of successes and failures, which is
/// exactly where a probe-lane perturbation could flip decisions.
struct MiniFixture {
  std::size_t hidden = 12;
  std::size_t epochs = 3;
  std::size_t train_steps = 900;
  double harm_threshold = 0.0;
};

CampaignPair run_campaign_pair(const std::string& name,
                               const core::DomainAdapter& domain,
                               const MiniFixture& mini) {
  core::FrameworkConfig config = domain.prepare(core::FrameworkConfig::fast());
  config.population.train_steps = mini.train_steps;
  config.population.test_steps = 320;
  config.population.seed = 17;
  config.profiling_campaign.attack.harm_threshold = mini.harm_threshold;
  const auto entities = domain.make_entities(config.population);

  CampaignPair pair;
  pair.domain = name;
  pair.severity = domain.spec().severity;

  predict::ForecasterConfig forecaster = config.registry.forecaster;
  forecaster.hidden = mini.hidden;
  forecaster.head_hidden = 8;
  forecaster.epochs = mini.epochs;
  forecaster.target_channel = domain.spec().target_channel;

  attack::CampaignConfig campaign = config.profiling_campaign;
  campaign.window_step = 1;
  campaign.shard_size = 8;
  campaign.attack.max_edits = 12;       // full window budget
  campaign.attack.stealth_fraction = 0.0;  // worst-case attacker

  common::ThreadPool pool(2);
  const std::size_t victims[] = {entities.size() / 2 - 1, entities.size() - 1};
  for (const std::size_t v : victims) {
    const core::EntityData& entity = entities[v];
    auto model = std::make_unique<predict::BiLstmForecaster>(
        forecaster,
        predict::fit_forecaster_scaler(entity.train.values,
                                       domain.spec().target_channel,
                                       domain.spec().target_min,
                                       domain.spec().target_max));
    data::WindowConfig window_config = config.window;
    window_config.step = 3;
    model->train(data::make_windows(entity.train, window_config));
    window_config.step = 2;
    const auto windows = data::make_windows(entity.test, window_config);

    campaign.attack.probe_precision = nn::Precision::kDouble;
    auto exact = attack::run_campaign(*model, windows, campaign, pool);
    campaign.attack.probe_precision = nn::Precision::kFast;
    auto fast = attack::run_campaign(*model, windows, campaign, pool);
    pair.exact.insert(pair.exact.end(), std::make_move_iterator(exact.begin()),
                      std::make_move_iterator(exact.end()));
    pair.fast.insert(pair.fast.end(), std::make_move_iterator(fast.begin()),
                     std::make_move_iterator(fast.end()));
    pair.models.push_back(std::move(model));
    pair.model_of.resize(pair.exact.size(), pair.models.size() - 1);
  }
  return pair;
}

const std::vector<CampaignPair>& campaign_pairs() {
  static const std::vector<CampaignPair> pairs = [] {
    std::vector<CampaignPair> all;
    all.push_back(run_campaign_pair("bgms", bgms::BgmsDomain(),
                                    {.harm_threshold = 165.0}));
    all.push_back(run_campaign_pair(
        "synthtel", synthtel::SynthtelDomain(2),
        {.hidden = 24, .epochs = 8, .train_steps = 2200, .harm_threshold = 96.5}));
    all.push_back(run_campaign_pair(
        "av", av::AvDomain(2),
        {.hidden = 16, .epochs = 6, .train_steps = 1500, .harm_threshold = 20.0}));
    return all;
  }();
  return pairs;
}

double rate_delta(double exact, double fast) { return std::fabs(exact - fast); }

TEST(FastScoring, CampaignsAttackTheSameWindows) {
  for (const CampaignPair& pair : campaign_pairs()) {
    ASSERT_FALSE(pair.exact.empty()) << pair.domain;
    ASSERT_EQ(pair.exact.size(), pair.fast.size()) << pair.domain;
    const auto exact = attack::summarize(pair.exact);
    const auto fast = attack::summarize(pair.fast);
    // The probe lane steers the search; it must not change WHICH windows
    // are eligible or how they classify before the attack.
    EXPECT_EQ(exact.normal_baseline_attempts, fast.normal_baseline_attempts);
    EXPECT_EQ(exact.normal_active_attempts, fast.normal_active_attempts);
    EXPECT_EQ(exact.low_baseline_attempts, fast.low_baseline_attempts);
    EXPECT_EQ(exact.low_active_attempts, fast.low_active_attempts);
    for (std::size_t i = 0; i < pair.exact.size(); ++i) {
      EXPECT_EQ(pair.exact[i].true_state, pair.fast[i].true_state);
      EXPECT_EQ(pair.exact[i].benign_predicted_state,
                pair.fast[i].benign_predicted_state);
    }
  }
}

TEST(FastScoring, FastCampaignTrajectoriesAreReVerifiedExactly) {
  // The re-verification contract: whatever lane steered the search, every
  // reported adversarial prediction must be bitwise reproducible through
  // the exact scalar path, and success must follow from it.
  for (const CampaignPair& pair : campaign_pairs()) {
    for (std::size_t i = 0; i < pair.fast.size(); ++i) {
      const attack::WindowOutcome& outcome = pair.fast[i];
      const double exact_prediction =
          pair.models[pair.model_of[i]]->predict(outcome.attack.adversarial_features);
      EXPECT_EQ(outcome.attack.adversarial_prediction, exact_prediction)
          << pair.domain << ": reported prediction must carry no polynomial error";
    }
  }
}

TEST(FastScoring, AttackSuccessRatesMatchExactLane) {
  for (const CampaignPair& pair : campaign_pairs()) {
    const auto exact = attack::summarize(pair.exact);
    const auto fast = attack::summarize(pair.fast);
    const double overall_delta = rate_delta(exact.overall_rate(), fast.overall_rate());
    const double cell_delta = std::max(
        std::max(rate_delta(exact.normal_baseline_rate(), fast.normal_baseline_rate()),
                 rate_delta(exact.normal_active_rate(), fast.normal_active_rate())),
        std::max(rate_delta(exact.low_baseline_rate(), fast.low_baseline_rate()),
                 rate_delta(exact.low_active_rate(), fast.low_active_rate())));
    std::size_t exact_successes = 0;
    std::size_t fast_successes = 0;
    for (const auto& o : pair.exact) exact_successes += o.attack.success ? 1u : 0u;
    for (const auto& o : pair.fast) fast_successes += o.attack.success ? 1u : 0u;
    std::cout << "[fast-scoring] " << pair.domain << ": windows=" << pair.exact.size()
              << " successes exact=" << exact_successes << " fast=" << fast_successes
              << " overall_rate exact=" << exact.overall_rate()
              << " fast=" << fast.overall_rate() << " |delta|=" << overall_delta
              << " max_cell_|delta|=" << cell_delta << "\n";
    // Few-ulp probes may flip a borderline greedy choice on isolated
    // windows; they must not move the campaign-level rates.
    EXPECT_LE(overall_delta, 0.02) << pair.domain;
    EXPECT_LE(cell_delta, 0.05) << pair.domain;
  }
}

TEST(FastScoring, RiskProfileMeansMatchExactLane) {
  for (const CampaignPair& pair : campaign_pairs()) {
    const risk::RiskProfile exact =
        risk::build_profile(pair.domain, pair.exact, pair.severity);
    const risk::RiskProfile fast =
        risk::build_profile(pair.domain, pair.fast, pair.severity);
    const double scale = std::max(std::fabs(exact.mean()), 1e-9);
    const double relative = std::fabs(exact.mean() - fast.mean()) / scale;
    std::cout << "[fast-scoring] " << pair.domain
              << ": risk_profile_mean exact=" << exact.mean()
              << " fast=" << fast.mean() << " rel_delta=" << relative << "\n";
    // Risk weighs the exact-verified trajectories; only a different chosen
    // trajectory can move it, so the means stay within a few percent.
    EXPECT_LE(relative, 0.05) << pair.domain;
  }
}

}  // namespace
}  // namespace goodones
