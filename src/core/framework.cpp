#include "core/framework.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "cluster/distance.hpp"
#include "core/sample_features.hpp"

namespace goodones::core {

namespace {

/// One sweep of `config`'s campaign over every entity's windows, each
/// against the entity's personalized model.
std::vector<std::vector<attack::WindowOutcome>> personalized_campaigns(
    const predict::ModelRegistry& models,
    const std::vector<std::vector<data::Window>>& windows,
    const attack::CampaignConfig& config, common::ThreadPool& pool) {
  std::vector<const predict::Forecaster*> fleet;
  std::vector<const std::vector<data::Window>*> window_sets;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    fleet.push_back(&models.personalized(i));
    window_sets.push_back(&windows[i]);
  }
  return attack::run_campaigns(fleet, window_sets, config, pool);
}

}  // namespace

const StrategyEvaluation& ExperimentResults::entry(detect::DetectorKind detector,
                                                   Strategy strategy) const {
  for (const auto& e : entries) {
    if (e.detector == detector && e.strategy == strategy) return e;
  }
  throw common::PreconditionError("no experiment entry for requested detector/strategy");
}

RiskProfilingFramework::RiskProfilingFramework(std::shared_ptr<const DomainAdapter> domain,
                                               FrameworkConfig config)
    : domain_(std::move(domain)),
      config_(config),
      pool_(std::make_unique<common::ThreadPool>()) {
  GO_EXPECTS(domain_ != nullptr);
  const DomainSpec& spec = domain_->spec();
  // Catch configs that skipped DomainAdapter::prepare(): the registry's
  // target scaling must agree with the domain spec or cross-entity risk
  // comparison silently breaks.
  GO_EXPECTS(config_.registry.target_channel == spec.target_channel);
  GO_EXPECTS(config_.registry.target_min == spec.target_min);
  GO_EXPECTS(config_.registry.target_max == spec.target_max);
  // The random strategy's entry averages over its runs.
  GO_EXPECTS(config_.random_runs > 0);
}

RiskProfilingFramework::~RiskProfilingFramework() = default;

void RiskProfilingFramework::ensure_entities() {
  if (!entities_.empty()) return;
  entities_ = domain_->make_entities(config_.population);
  GO_ENSURES(!entities_.empty());
  for (const auto& entity : entities_) {
    GO_ENSURES(entity.train.num_channels() == domain_->spec().num_channels);
    GO_ENSURES(entity.subset < domain_->spec().num_subsets);
  }
}

const std::vector<EntityData>& RiskProfilingFramework::entities() {
  ensure_entities();
  return entities_;
}

void RiskProfilingFramework::ensure_models() {
  if (models_.has_value()) return;
  ensure_entities();
  common::log_info("training forecaster fleet (", entities_.size(), " personalized)");
  std::vector<const data::TelemetrySeries*> train_series;
  std::vector<std::string> names;
  train_series.reserve(entities_.size());
  names.reserve(entities_.size());
  for (const auto& entity : entities_) {
    train_series.push_back(&entity.train);
    names.push_back(entity.name);
  }
  models_ = predict::ModelRegistry::train(train_series, names, config_.window,
                                          config_.registry, *pool_);
}

const predict::ModelRegistry& RiskProfilingFramework::models() {
  ensure_models();
  return *models_;
}

void RiskProfilingFramework::ensure_scaler() {
  if (scaler_.has_value()) return;
  ensure_entities();
  const DomainSpec& spec = domain_->spec();
  data::MinMaxScaler scaler;
  for (const auto& entity : entities_) scaler.partial_fit(entity.train.values);
  scaler.set_column_range(spec.target_channel, spec.target_min, spec.target_max);
  scaler_ = std::move(scaler);
}

const data::MinMaxScaler& RiskProfilingFramework::detector_scaler() {
  ensure_scaler();
  return *scaler_;
}

void RiskProfilingFramework::ensure_windows() {
  if (!train_windows_.empty()) return;
  ensure_entities();
  train_windows_.resize(entities_.size());
  test_windows_.resize(entities_.size());
  data::WindowConfig window = config_.window;
  window.step = 1;  // full resolution; consumers stride as needed
  common::parallel_for(*pool_, entities_.size(), [&](std::size_t i) {
    train_windows_[i] = data::make_windows(entities_[i].train, window);
    test_windows_[i] = data::make_windows(entities_[i].test, window);
  });
}

void RiskProfilingFramework::ensure_profiling() {
  if (profiling_.has_value()) return;
  ensure_models();
  ensure_windows();
  const DomainSpec& spec = domain_->spec();

  ProfilingOutputs out;
  out.train_attack_rates.resize(entities_.size());
  out.profiles.resize(entities_.size());
  out.benign_normal_ratio.resize(entities_.size());

  // Step 1: the defender simulates the attack on each victim's own history
  // against the victim's deployed (personalized) model.
  common::log_info("step 1: simulating profiling attack campaigns");
  std::vector<std::vector<attack::WindowOutcome>> train_outcomes =
      personalized_campaigns(*models_, train_windows_, config_.profiling_campaign, *pool_);
  for (std::size_t i = 0; i < entities_.size(); ++i) {
    out.train_attack_rates[i] = attack::summarize(train_outcomes[i]);
  }

  // Steps 2-3: instantaneous risk and per-victim profiles, under the
  // domain's severity schedule.
  for (std::size_t i = 0; i < entities_.size(); ++i) {
    out.profiles[i] = risk::build_profile(entities_[i].name, train_outcomes[i],
                                          spec.severity);
  }

  // Fig. 4 statistic on the benign traces (train + test).
  for (std::size_t i = 0; i < entities_.size(); ++i) {
    std::vector<double> target = entities_[i].train.channel(spec.target_channel);
    const auto test_target = entities_[i].test.channel(spec.target_channel);
    target.insert(target.end(), test_target.begin(), test_target.end());
    std::vector<data::Regime> regimes = entities_[i].train.regimes;
    regimes.insert(regimes.end(), entities_[i].test.regimes.begin(),
                   entities_[i].test.regimes.end());
    out.benign_normal_ratio[i] = data::normal_ratio(target, regimes, spec.thresholds);
  }

  // Step 4: hierarchical clustering per subset, as the paper presents it.
  common::log_info("step 4: clustering risk profiles");
  out.subset_members.resize(spec.num_subsets);
  for (std::size_t i = 0; i < entities_.size(); ++i) {
    out.subset_members[entities_[i].subset].push_back(i);
  }
  for (const auto& members : out.subset_members) {
    GO_ENSURES(members.size() >= 2);  // a dendrogram needs at least two leaves
  }
  out.dendrograms.reserve(spec.num_subsets);
  for (std::size_t s = 0; s < spec.num_subsets; ++s) {
    std::vector<risk::RiskProfile> subset;
    subset.reserve(out.subset_members[s].size());
    for (const std::size_t i : out.subset_members[s]) subset.push_back(out.profiles[i]);
    subset = risk::align_profiles(std::move(subset));
    std::vector<std::vector<double>> series;
    series.reserve(subset.size());
    for (const auto& p : subset) series.push_back(p.log_scaled());
    const nn::Matrix distances =
        cluster::distance_matrix(series, config_.profile_distance);
    out.dendrograms.push_back(cluster::agglomerate(distances, config_.linkage));
  }

  // Cut each subset into two groups and label by attack success: the group
  // whose members were easier to attack is "more vulnerable" (the paper
  // cross-checks clusters against misclassification percentages).
  for (std::size_t s = 0; s < spec.num_subsets; ++s) {
    const auto& members = out.subset_members[s];
    const auto labels = out.dendrograms[s].cut(2);
    double rate[2] = {0.0, 0.0};
    std::size_t count[2] = {0, 0};
    for (std::size_t i = 0; i < labels.size(); ++i) {
      rate[labels[i]] += out.train_attack_rates[members[i]].overall_rate();
      ++count[labels[i]];
    }
    for (int g = 0; g < 2; ++g) {
      if (count[g] > 0) rate[g] /= static_cast<double>(count[g]);
    }
    const std::size_t less_label = rate[0] <= rate[1] ? 0 : 1;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (labels[i] == less_label) {
        out.clusters.less_vulnerable.push_back(members[i]);
      } else {
        out.clusters.more_vulnerable.push_back(members[i]);
      }
    }
  }

  // Keep the raw campaign outcomes for detector training (the defender's
  // simulated malicious samples come from this very campaign).
  profiling_ = std::move(out);
  train_profiling_outcomes_ = std::move(train_outcomes);
}

const ProfilingOutputs& RiskProfilingFramework::profiling() {
  ensure_profiling();
  return *profiling_;
}

void RiskProfilingFramework::ensure_test_outcomes() {
  if (test_outcomes_ready_) return;
  ensure_models();
  ensure_windows();
  common::log_info("attacking held-out test data (evaluation campaign)");
  test_outcomes_ =
      personalized_campaigns(*models_, test_windows_, config_.evaluation_campaign, *pool_);
  test_outcomes_ready_ = true;
}

const std::vector<attack::WindowOutcome>& RiskProfilingFramework::test_outcomes(
    std::size_t entity) {
  ensure_test_outcomes();
  GO_EXPECTS(entity < test_outcomes_.size());
  return test_outcomes_[entity];
}

const std::vector<attack::WindowOutcome>& RiskProfilingFramework::profiling_outcomes(
    std::size_t entity) {
  ensure_profiling();
  GO_EXPECTS(entity < train_profiling_outcomes_.size());
  return train_profiling_outcomes_[entity];
}

std::vector<nn::Matrix> RiskProfilingFramework::benign_train_windows(std::size_t entity) {
  ensure_windows();
  ensure_scaler();
  GO_EXPECTS(entity < train_windows_.size());
  std::vector<nn::Matrix> out;
  const auto& windows = train_windows_[entity];
  for (std::size_t i = 0; i < windows.size(); i += config_.detector_benign_stride) {
    out.push_back(scaler_->transform(windows[i].features));
  }
  return out;
}

std::vector<nn::Matrix> RiskProfilingFramework::benign_test_windows(std::size_t entity) {
  ensure_windows();
  ensure_scaler();
  GO_EXPECTS(entity < test_windows_.size());
  std::vector<nn::Matrix> out;
  const auto& windows = test_windows_[entity];
  for (std::size_t i = 0; i < windows.size(); i += config_.detector_benign_stride) {
    out.push_back(scaler_->transform(windows[i].features));
  }
  return out;
}

std::vector<nn::Matrix> RiskProfilingFramework::malicious_windows(
    const std::vector<attack::WindowOutcome>& outcomes) {
  ensure_scaler();
  std::vector<nn::Matrix> out;
  for (const auto& outcome : outcomes) {
    if (outcome.attack.success) {
      out.push_back(scaler_->transform(outcome.attack.adversarial_features));
    }
  }
  return out;
}

std::vector<nn::Matrix> RiskProfilingFramework::benign_train_samples(std::size_t entity) {
  ensure_entities();
  ensure_scaler();
  GO_EXPECTS(entity < entities_.size());
  return series_samples(domain_->spec(), entities_[entity].train, *scaler_,
                        config_.detector_benign_stride);
}

std::vector<nn::Matrix> RiskProfilingFramework::benign_test_samples(std::size_t entity) {
  ensure_entities();
  ensure_scaler();
  GO_EXPECTS(entity < entities_.size());
  return series_samples(domain_->spec(), entities_[entity].test, *scaler_,
                        config_.detector_benign_stride);
}

std::vector<nn::Matrix> RiskProfilingFramework::malicious_samples(
    const std::vector<attack::WindowOutcome>& outcomes) {
  ensure_scaler();
  const DomainSpec& spec = domain_->spec();
  std::vector<nn::Matrix> out;
  for (const auto& outcome : outcomes) {
    if (outcome.attack.success) append_edited_samples(spec, outcome, *scaler_, out);
  }
  return out;
}

TrainedDetector RiskProfilingFramework::train_detector(
    detect::DetectorKind kind, const std::vector<std::size_t>& train_victims) {
  GO_EXPECTS(!train_victims.empty());
  ensure_profiling();
  const DomainSpec& spec = domain_->spec();

  TrainedDetector trained;
  trained.detector = detect::make_detector(kind, config_.detectors);
  auto& detector = trained.detector;
  const bool sample_level =
      detector->granularity() == detect::InputGranularity::kSample;

  // Assemble the strategy's training material at the detector's granularity:
  // individual telemetry samples for kNN/OneClassSVM (the paper flags single
  // measurements), whole windows for MAD-GAN.
  std::vector<nn::Matrix> benign;
  std::vector<nn::Matrix> malicious;
  for (const std::size_t p : train_victims) {
    GO_EXPECTS(p < entities_.size());
    auto b = sample_level ? benign_train_samples(p) : benign_train_windows(p);
    benign.insert(benign.end(), std::make_move_iterator(b.begin()),
                  std::make_move_iterator(b.end()));
    auto m = sample_level ? malicious_samples(train_profiling_outcomes_[p])
                          : malicious_windows(train_profiling_outcomes_[p]);
    malicious.insert(malicious.end(), std::make_move_iterator(m.begin()),
                     std::make_move_iterator(m.end()));
  }
  if (sample_level) {
    // Defender-side augmentation: the threat model pins manipulated target
    // values inside a known constraint box, so the defender's simulation
    // covers the whole box, not only the manipulations that happened to
    // break the forecaster. Without this, a detector trained on resilient
    // victims would only ever see the attacker's escalated probes.
    const double box_lo = config_.profiling_campaign.attack.baseline_box_min;
    const double box_hi = config_.profiling_campaign.attack.box_max;
    std::uint64_t selection_hash = config_.seed;
    for (const std::size_t p : train_victims) selection_hash = selection_hash * 31 + p;
    common::Rng rng(selection_hash ^ 0xFEEDFACECAFEBEEFULL);
    const std::size_t n_synthetic = std::max<std::size_t>(benign.size() / 4, 256);
    for (std::size_t i = 0; i < n_synthetic && !benign.empty(); ++i) {
      const auto base = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(benign.size()) - 1));
      nn::Matrix sample = benign[base];
      sample(0, spec.target_channel) =
          scaler_->transform_value(rng.uniform(box_lo, box_hi), spec.target_channel);
      malicious.push_back(std::move(sample));
    }
  } else if (malicious.empty()) {
    // Window-granularity fallback: the simulated attack never fully
    // succeeded on the selected victims. Supervised window detectors still
    // need a malicious class: use the strongest manipulated windows.
    common::log_warn("no successful simulated attacks on selected victims; "
                     "training on strongest manipulated windows instead");
    for (const std::size_t p : train_victims) {
      for (const auto& outcome : train_profiling_outcomes_[p]) {
        if (outcome.attack.edits > 0) {
          malicious.push_back(scaler_->transform(outcome.attack.adversarial_features));
        }
      }
    }
  }
  trained.train_benign = benign.size();
  trained.train_malicious = malicious.size();
  detector->fit(benign, malicious);
  return trained;
}

VulnerabilityClusters RiskProfilingFramework::rebuild_routing(
    const VulnerabilityClusters& partition) {
  ensure_entities();
  VulnerabilityClusters canonical = partition;
  std::sort(canonical.less_vulnerable.begin(), canonical.less_vulnerable.end());
  std::sort(canonical.more_vulnerable.begin(), canonical.more_vulnerable.end());

  std::vector<char> seen(entities_.size(), 0);
  const auto mark = [&](const std::vector<std::size_t>& group) {
    for (const std::size_t p : group) {
      if (p >= entities_.size()) {
        throw common::PreconditionError("routing partition names unknown entity index " +
                                        std::to_string(p));
      }
      if (seen[p]) {
        throw common::PreconditionError("routing partition assigns entity " +
                                        std::to_string(p) + " to both clusters");
      }
      seen[p] = 1;
    }
  };
  mark(canonical.less_vulnerable);
  mark(canonical.more_vulnerable);
  for (std::size_t p = 0; p < seen.size(); ++p) {
    if (!seen[p]) {
      throw common::PreconditionError("routing partition misses entity " + std::to_string(p));
    }
  }
  return canonical;
}

StrategyEvaluation RiskProfilingFramework::evaluate_strategy(
    detect::DetectorKind kind, const std::vector<std::size_t>& train_victims) {
  ensure_test_outcomes();

  TrainedDetector trained = train_detector(kind, train_victims);
  const auto& detector = trained.detector;
  const bool sample_level =
      detector->granularity() == detect::InputGranularity::kSample;

  StrategyEvaluation eval;
  eval.detector = kind;
  eval.train_benign = trained.train_benign;
  eval.train_malicious = trained.train_malicious;

  // Test on every victim: their benign test data plus the successful
  // adversarial inputs from the evaluation campaign.
  eval.per_victim.resize(entities_.size());
  for (std::size_t p = 0; p < entities_.size(); ++p) {
    const auto benign_eval = sample_level ? benign_test_samples(p) : benign_test_windows(p);
    const auto malicious_eval = sample_level ? malicious_samples(test_outcomes_[p])
                                             : malicious_windows(test_outcomes_[p]);

    std::vector<nn::Matrix> all;
    all.reserve(benign_eval.size() + malicious_eval.size());
    all.insert(all.end(), benign_eval.begin(), benign_eval.end());
    all.insert(all.end(), malicious_eval.begin(), malicious_eval.end());
    std::vector<char> flagged(all.size(), 0);

    common::parallel_for(*pool_, all.size(), [&](std::size_t i) {
      flagged[i] = detector->flags(all[i]) ? 1 : 0;
    });

    ConfusionMatrix& cm = eval.per_victim[p];
    for (std::size_t i = 0; i < benign_eval.size(); ++i) {
      cm.add(/*actual_malicious=*/false, flagged[i] != 0);
    }
    for (std::size_t i = 0; i < malicious_eval.size(); ++i) {
      cm.add(/*actual_malicious=*/true, flagged[benign_eval.size() + i] != 0);
    }
    eval.pooled.merge(cm);
  }
  return eval;
}

ExperimentResults RiskProfilingFramework::run_detector_experiments(
    const std::vector<detect::DetectorKind>& kinds) {
  ensure_profiling();
  ensure_test_outcomes();

  ExperimentResults results;
  for (const auto kind : kinds) {
    for (const Strategy strategy : all_strategies()) {
      if (strategy == Strategy::kRandomSamples) {
        StrategyEvaluation aggregate;
        aggregate.detector = kind;
        aggregate.strategy = strategy;
        aggregate.per_victim.resize(entities_.size());
        for (std::size_t run = 0; run < config_.random_runs; ++run) {
          const auto victims =
              select_victims(strategy, profiling_->clusters, entities_.size(),
                             config_.random_victims, config_.seed ^ (0x5170ULL + run));
          const StrategyEvaluation eval = evaluate_strategy(kind, victims);
          aggregate.pooled.merge(eval.pooled);
          for (std::size_t p = 0; p < entities_.size(); ++p) {
            aggregate.per_victim[p].merge(eval.per_victim[p]);
          }
          aggregate.train_benign += eval.train_benign;
          aggregate.train_malicious += eval.train_malicious;
        }
        aggregate.train_benign /= config_.random_runs;
        aggregate.train_malicious /= config_.random_runs;
        results.entries.push_back(std::move(aggregate));
      } else {
        const auto victims = select_victims(strategy, profiling_->clusters,
                                            entities_.size(), config_.random_victims,
                                            config_.seed);
        StrategyEvaluation eval = evaluate_strategy(kind, victims);
        eval.strategy = strategy;
        results.entries.push_back(std::move(eval));
      }
      common::log_info(detect::to_string(kind), " x ", to_string(strategy), " done");
    }
  }
  return results;
}

}  // namespace goodones::core
