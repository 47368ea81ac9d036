// risk_profile: the paper's offline pipeline on the BGMS domain (12
// patients), repeated with a fresh RiskProfilingFramework per repetition.
//
// A repetition generates the domain (its set-up), then runs the pipeline:
// forecaster training, the step-1 profiling campaigns and steps 2-4
// (profiling()), the evaluation campaign on the held-out split, and step 5
// for the kNN detector under the Less Vulnerable and All Victims strategies.
// Repetitions of one run share the seed, so every repetition must produce
// the same cluster partition and the same total probe count.
//
// Traced runs alternate untraced and traced repetitions. A traced one also
// replays each layer on the repetition's own inputs through the layers'
// public functions (campaigns, profiles, clustering, detector fit and
// evaluation), and checks the replays reproduce the framework's results.
#include <memory>
#include <span>

#include "attack/campaign.hpp"
#include "cluster/distance.hpp"
#include "cluster/hierarchical.hpp"
#include "common/thread_pool.hpp"
#include "core/framework.hpp"
#include "core/metrics.hpp"
#include "core/strategy.hpp"
#include "domains/bgms/adapter.hpp"
#include "harness.hpp"
#include "risk/profile.hpp"
#include "risk/schedule.hpp"

namespace perfbench {

namespace gc = goodones::core;
using goodones::nn::Matrix;

namespace {

constexpr auto kDetector = goodones::detect::DetectorKind::kKnn;
/// Predict-batch replays use up to this many windows per entity.
constexpr std::size_t kPredictBatch = 64;

/// A reduced fast preset: one repetition takes a couple of seconds on a
/// 4-core host, so several fit in one run and their median is steady.
gc::FrameworkConfig pipeline_config(const gc::DomainAdapter& domain, std::uint64_t seed) {
  gc::FrameworkConfig config = domain.prepare(gc::FrameworkConfig::fast());
  config.population.train_steps = 4000;
  config.population.test_steps = 1200;
  config.population.seed = mix_seed(seed, 4);
  config.registry.forecaster.hidden = 16;
  config.registry.forecaster.head_hidden = 12;
  config.registry.forecaster.epochs = 2;
  config.registry.train_window_step = 6;
  config.registry.aggregate_window_step = 36;
  config.profiling_campaign.window_step = 3;
  config.evaluation_campaign.window_step = 3;
  config.detector_benign_stride = 4;
  config.detectors.knn.max_points_per_class = 1000;
  config.random_runs = 1;
  return config;
}

struct Repetition {
  double setup_s = 0.0;
  double pipeline_s = 0.0;
  double campaign_s = 0.0;
  std::uint64_t probes = 0;
  std::uint64_t attacked = 0;
  std::uint64_t successes = 0;
  std::vector<std::size_t> less_vulnerable;
};

void count_outcomes(const std::vector<goodones::attack::WindowOutcome>& outcomes,
                    Repetition& rep) {
  for (const auto& outcome : outcomes) {
    rep.probes += outcome.attack.probes;
    rep.attacked += 1;
    rep.successes += outcome.attack.success ? 1 : 0;
  }
}

bool same_confusion(const gc::ConfusionMatrix& a, const gc::ConfusionMatrix& b) {
  return a.tp == b.tp && a.fp == b.fp && a.fn == b.fn && a.tn == b.tn;
}

/// Replays every layer of a finished repetition on the same inputs, one
/// span per layer call (request id = repetition). Returns false when a
/// replay disagrees with what the framework computed.
bool replay_layers(gc::RiskProfilingFramework& framework, std::uint64_t id,
                   const std::vector<std::pair<const std::vector<std::size_t>*,
                                               const gc::StrategyEvaluation*>>& strategies,
                   Tracer::Buffer& buffer) {
  const auto& entities = framework.entities();
  const auto& models = framework.models();
  const gc::ProfilingOutputs& profiling = framework.profiling();
  const gc::DomainSpec& spec = framework.domain().spec();
  const gc::FrameworkConfig& config = framework.config();
  bool agree = true;

  // Step 1: the profiling campaigns, on the framework's own window geometry.
  goodones::data::WindowConfig geometry = config.window;
  geometry.step = 1;
  std::vector<std::vector<goodones::attack::WindowOutcome>> outcomes(entities.size());
  for (std::size_t i = 0; i < entities.size(); ++i) {
    const auto windows = goodones::data::make_windows(entities[i].train, geometry);
    outcomes[i] = buffer.record(id, "attack.campaign", "pipeline", 1, [&] {
      return goodones::attack::run_campaign(models.personalized(i), windows,
                                            config.profiling_campaign, framework.pool());
    });
    const auto& reference = framework.profiling_outcomes(i);
    agree = agree && outcomes[i].size() == reference.size();
    for (std::size_t w = 0; agree && w < reference.size(); ++w) {
      agree = outcomes[i][w].attack.probes == reference[w].attack.probes &&
              outcomes[i][w].attack.success == reference[w].attack.success;
    }

    std::vector<Matrix> batch;
    for (std::size_t w = 0; w < outcomes[i].size() && w < kPredictBatch; ++w) {
      batch.push_back(outcomes[i][w].benign.features);
    }
    buffer.record(id, "predict.predict_batch", "pipeline", static_cast<double>(batch.size()), [&] {
      return models.personalized(i).predict_batch(std::span<const Matrix>(batch));
    });
    buffer.record(id, "counters.add", "pipeline", 1,
                  [&] { gc::counters().add("perfbench.probe", 1); });
  }

  // Steps 2-3: risk profiles, aligned per clustering subset.
  std::vector<std::vector<goodones::risk::RiskProfile>> aligned(profiling.subset_members.size());
  buffer.record(id, "risk.profile", "pipeline", static_cast<double>(entities.size()), [&] {
    for (std::size_t s = 0; s < profiling.subset_members.size(); ++s) {
      std::vector<goodones::risk::RiskProfile> subset;
      for (const std::size_t i : profiling.subset_members[s]) {
        subset.push_back(
            goodones::risk::build_profile(entities[i].name, outcomes[i], spec.severity));
      }
      aligned[s] = goodones::risk::align_profiles(std::move(subset));
    }
  });

  // Step 4: distances plus agglomeration per subset.
  for (std::size_t s = 0; s < aligned.size(); ++s) {
    const goodones::cluster::Dendrogram dendrogram =
        buffer.record(id, "cluster.agglomerate", "pipeline", 1, [&] {
          std::vector<std::vector<double>> series;
          for (const auto& profile : aligned[s]) series.push_back(profile.log_scaled());
          return goodones::cluster::agglomerate(
              goodones::cluster::distance_matrix(series, config.profile_distance),
              config.linkage);
        });
    const auto& merges = dendrogram.merges();
    const auto& reference = profiling.dendrograms[s].merges();
    agree = agree && merges.size() == reference.size();
    for (std::size_t m = 0; agree && m < merges.size(); ++m) {
      agree = merges[m].left == reference[m].left && merges[m].right == reference[m].right &&
              merges[m].height == reference[m].height;
    }
  }

  // Step 5: for each strategy, fit on its victims and evaluate on all.
  for (const auto& [victims, evaluation] : strategies) {
    const gc::TrainedDetector trained =
        buffer.record(id, "detect.fit", "pipeline", 1,
                      [&] { return framework.train_detector(kDetector, *victims); });
    gc::ConfusionMatrix pooled;
    buffer.record(id, "detect.eval", "pipeline", 1, [&] {
      for (std::size_t p = 0; p < entities.size(); ++p) {
        const Clock::time_point begin = Clock::now();
        std::vector<Matrix> material = framework.benign_test_samples(p);
        const std::size_t benign = material.size();
        const auto malicious = framework.malicious_samples(framework.test_outcomes(p));
        material.insert(material.end(), malicious.begin(), malicious.end());
        buffer.add(id, "detect.transform", "detect.eval", static_cast<double>(material.size()),
                   begin, Clock::now());
        std::vector<char> flagged(material.size(), 0);
        goodones::common::parallel_for(framework.pool(), material.size(), [&](std::size_t i) {
          flagged[i] = trained.detector->flags(material[i]) ? 1 : 0;
        });
        for (std::size_t i = 0; i < material.size(); ++i) {
          pooled.add(i >= benign, flagged[i] != 0);
        }
      }
    });
    agree = agree && same_confusion(pooled, evaluation->pooled);

    // The detector's batch scoring, on one victim's benign evaluation samples.
    const std::vector<Matrix> material = framework.benign_test_samples(0);
    buffer.record(id, "detect.score_batch", "pipeline", static_cast<double>(material.size()),
                  [&] { return trained.detector->score_batch(std::span<const Matrix>(material)); });
  }
  return agree;
}

}  // namespace

void run_risk_profile(const Options& options, Report& report, Tracer& tracer) {
  const auto domain = std::make_shared<goodones::bgms::BgmsDomain>();
  const gc::FrameworkConfig config = pipeline_config(*domain, options.seed);

  Repetition warm_up;
  std::vector<Repetition> untraced, traced;
  bool deterministic = true, replays_agree = true;
  const Clock::time_point run_start = Clock::now();
  // Repetition 0 is a warm-up (allocator and page-cache state) and is not
  // reported; at least one untraced and one traced repetition follow.
  for (std::uint64_t rep = 0; rep < 3 || seconds_since(run_start) < options.seconds; ++rep) {
    const bool traced_rep = options.trace && rep > 0 && rep % 2 == 0;
    Repetition r;

    Clock::time_point start = Clock::now();
    auto framework = std::make_unique<gc::RiskProfilingFramework>(domain, config);
    const std::size_t n = framework->entities().size();
    r.setup_s = seconds_since(start);

    Tracer::Buffer* buffer = traced_rep ? &tracer.buffer() : nullptr;
    const auto stage = [&](const char* name, auto&& fn) {
      const Clock::time_point begin = Clock::now();
      fn();
      if (buffer) buffer->add(rep, name, "pipeline", 1, begin, Clock::now());
      return std::chrono::duration<double>(Clock::now() - begin).count();
    };
    start = Clock::now();
    stage("predict.train", [&] { framework->models(); });
    const double profiling_s = stage("pipeline.profiling", [&] { framework->profiling(); });
    const double evaluation_campaign_s =
        stage("attack.campaign", [&] { framework->test_outcomes(0); });
    const gc::VulnerabilityClusters& clusters = framework->profiling().clusters;
    r.less_vulnerable = clusters.less_vulnerable;
    const auto lv = gc::select_victims(gc::Strategy::kLessVulnerable, clusters, n,
                                       config.random_victims, config.seed);
    const auto all = gc::select_victims(gc::Strategy::kAllVictims, clusters, n,
                                        config.random_victims, config.seed);
    gc::StrategyEvaluation lv_eval, all_eval;
    stage("pipeline.evaluate", [&] { lv_eval = framework->evaluate_strategy(kDetector, lv); });
    stage("pipeline.evaluate", [&] { all_eval = framework->evaluate_strategy(kDetector, all); });
    r.pipeline_s = seconds_since(start);
    if (buffer) buffer->add(rep, "pipeline", "", 1, start, Clock::now());

    for (std::size_t i = 0; i < n; ++i) {
      count_outcomes(framework->profiling_outcomes(i), r);
      count_outcomes(framework->test_outcomes(i), r);
    }
    r.campaign_s = profiling_s + evaluation_campaign_s;

    if (rep == 0) {
      warm_up = r;
    } else {
      deterministic = deterministic && warm_up.less_vulnerable == r.less_vulnerable &&
                      warm_up.probes == r.probes;
    }
    if (traced_rep) {
      replays_agree =
          replay_layers(*framework, rep, {{&lv, &lv_eval}, {&all, &all_eval}}, *buffer) &&
          replays_agree;
    }
    if (rep > 0) (traced_rep ? traced : untraced).push_back(std::move(r));
  }

  std::vector<double> setups, pipelines, probe_rates;
  for (const auto* reps : {&untraced, &traced}) {
    for (const Repetition& r : *reps) setups.push_back(r.setup_s);
  }
  for (const Repetition& r : untraced) {
    pipelines.push_back(r.pipeline_s);
    probe_rates.push_back(static_cast<double>(r.probes) / r.campaign_s);
  }
  report.attempted = untraced.size() + traced.size();
  report.failed = (deterministic ? 0 : 1) + (replays_agree ? 0 : 1);
  report.correct = deterministic && replays_agree;

  std::string partition;
  for (const std::size_t i : warm_up.less_vulnerable) {
    partition += ' ';
    partition += std::to_string(i);
  }
  report.note(std::to_string(report.attempted) + " repetitions; less-vulnerable cluster {" +
              partition + " }, " + std::to_string(warm_up.probes) + " probes over " +
              std::to_string(warm_up.attacked) + " attacked windows (" +
              (deterministic ? "identical" : "DIFFERING") + " across repetitions)");

  if (!options.trace) {
    // A repetition is one block: its p50 and p95 are its own time.
    const double pipeline_s = median(pipelines);
    const double probes_per_s = median(probe_rates);
    report.note("pipeline_s = " + std::to_string(pipeline_s) + " s, probes_per_s = " +
                std::to_string(probes_per_s) + " 1/s");
    report.add("latency_typical_us", pipeline_s * 1e6, "us");
    report.add("latency_p95_us", pipeline_s * 1e6, "us");
    report.add("throughput_per_s", probes_per_s, "1/s");
    report.add("setup_s", median(setups), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  std::vector<double> traced_pipelines;
  for (const Repetition& r : traced) traced_pipelines.push_back(r.pipeline_s);
  report.note(std::string("layer replays ") +
              (replays_agree ? "reproduce" : "DO NOT reproduce") +
              " the framework's campaigns, dendrograms and confusion matrix");

  std::map<std::string, double> layers;
  layers["counters.add_ns"] = tracer.median_ns("counters.add");
  layers["predict.predict_batch_ns_per_window"] =
      tracer.median_ns_per_item("predict.predict_batch");
  layers["predict.windows_per_call"] = tracer.median_items("predict.predict_batch");
  layers["predict.train_s"] = tracer.median_request_sum_ns("predict.train") * 1e-9;
  layers["detect.transform_ns_per_window"] = tracer.median_ns_per_item("detect.transform");
  layers["detect.score_batch_ns_per_window"] = tracer.median_ns_per_item("detect.score_batch");
  layers["detect.fit_s"] = tracer.median_request_sum_ns("detect.fit") * 1e-9;
  layers["detect.eval_s"] = tracer.median_request_sum_ns("detect.eval") * 1e-9;
  layers["attack.campaign_s"] = tracer.median_request_sum_ns("attack.campaign") * 1e-9;
  layers["attack.probes_per_window"] =
      static_cast<double>(warm_up.probes) / static_cast<double>(warm_up.attacked);
  layers["attack.success_ratio"] =
      static_cast<double>(warm_up.successes) / static_cast<double>(warm_up.attacked);
  layers["risk.profile_s"] = tracer.median_request_sum_ns("risk.profile") * 1e-9;
  layers["cluster.agglomerate_s"] = tracer.median_request_sum_ns("cluster.agglomerate") * 1e-9;
  layers["trace.overhead_us"] = (median(traced_pipelines) - median(pipelines)) * 1e6;
  reconcile("risk_profile, one pipeline repetition (layers replayed on its inputs)",
            median(traced_pipelines) * 1e6,
            {{"predict.train", layers["predict.train_s"] * 1e6},
             {"attack.campaign", layers["attack.campaign_s"] * 1e6},
             {"risk.profile", layers["risk.profile_s"] * 1e6},
             {"cluster.agglomerate", layers["cluster.agglomerate_s"] * 1e6},
             {"detect.fit", layers["detect.fit_s"] * 1e6},
             {"detect.eval", layers["detect.eval_s"] * 1e6}},
            report, layers);
  report.add_layers(layers);
}

}  // namespace perfbench
