// Reproduces paper Appendix A (Fig. 9 and Fig. 10): percentage of
// originally-normal (Fig. 9) and originally-hypoglycemic (Fig. 10) glucose
// instances misdiagnosed as hyperglycemic under the URET-style attack, per
// personalized model, for the aggregate model, and averaged — fasting and
// postprandial scenarios. A microbenchmark times the attack search.
#include "bench_common.hpp"

#include "attack/evasion.hpp"
#include "data/timeseries.hpp"
#include "domains/bgms/cohort.hpp"
#include "predict/registry.hpp"

namespace {

using namespace goodones;

void reproduce_appendix_a(core::RiskProfilingFramework& framework) {
  auto& models = framework.models();
  const auto& entities = framework.entities();

  common::AsciiTable fig9("Fig. 9 — Normal -> Hyper attack success (%), test split",
                          {"Model", "Fasting", "Postprandial"});
  common::AsciiTable fig10("Fig. 10 — Hypo -> Hyper attack success (%), test split",
                           {"Model", "Fasting", "Postprandial"});
  common::CsvTable csv({"model", "origin", "fasting_pct", "postprandial_pct",
                        "fasting_attempts", "postprandial_attempts"});

  attack::CampaignConfig campaign = framework.config().evaluation_campaign;
  double avg9_fast = 0.0;
  double avg9_post = 0.0;
  double avg10_fast = 0.0;
  double avg10_post = 0.0;
  std::size_t model_count = 0;

  const auto add_model = [&](const std::string& name,
                             const predict::Forecaster& model,
                             const std::vector<data::Window>& windows) {
    const auto outcomes = attack::run_campaign(model, windows, campaign, framework.pool());
    const auto rates = attack::summarize(outcomes);
    fig9.add_row({name, common::fixed(100.0 * rates.normal_baseline_rate(), 1),
                  common::fixed(100.0 * rates.normal_active_rate(), 1)});
    fig10.add_row({name, common::fixed(100.0 * rates.low_baseline_rate(), 1),
                   common::fixed(100.0 * rates.low_active_rate(), 1)});
    csv.add_row({name, "normal", common::format_double(100.0 * rates.normal_baseline_rate()),
                 common::format_double(100.0 * rates.normal_active_rate()),
                 std::to_string(rates.normal_baseline_attempts),
                 std::to_string(rates.normal_active_attempts)});
    csv.add_row({name, "hypo", common::format_double(100.0 * rates.low_baseline_rate()),
                 common::format_double(100.0 * rates.low_active_rate()),
                 std::to_string(rates.low_baseline_attempts),
                 std::to_string(rates.low_active_attempts)});
    avg9_fast += rates.normal_baseline_rate();
    avg9_post += rates.normal_active_rate();
    avg10_fast += rates.low_baseline_rate();
    avg10_post += rates.low_active_rate();
    ++model_count;
  };

  // Personalized models on their own patient's held-out test windows, then
  // the aggregate model, trained on every patient's training series, pooled
  // over every patient's test windows.
  data::WindowConfig window = framework.config().window;
  window.step = 1;
  std::vector<data::Window> pooled;
  for (std::size_t i = 0; i < entities.size(); ++i) {
    const auto& series = entities[i].test;
    auto windows = data::make_windows(series, window);
    add_model("Patient " + entities[i].name, models.personalized(i),
              windows);
    // Pool a slice into the aggregate-model evaluation set.
    for (std::size_t k = 0; k < windows.size(); k += entities.size()) {
      pooled.push_back(windows[k]);
    }
  }
  std::vector<const data::TelemetrySeries*> train_series;
  for (const auto& entity : entities) train_series.push_back(&entity.train);
  const predict::BiLstmForecaster aggregate = predict::train_aggregate(
      train_series, framework.config().window, framework.config().registry);
  add_model("All patients (aggregate)", aggregate, pooled);

  const auto n = static_cast<double>(model_count);
  fig9.add_row({"Average", common::fixed(100.0 * avg9_fast / n, 1),
                common::fixed(100.0 * avg9_post / n, 1)});
  fig10.add_row({"Average", common::fixed(100.0 * avg10_fast / n, 1),
                 common::fixed(100.0 * avg10_post / n, 1)});

  fig9.print();
  fig10.print();
  bench::save_artifact(csv, "fig9_fig10_attack_success.csv");
  std::cout << "Paper shape check: success rates should differ strongly across patients\n"
               "(resilient patients like A_5/B_1/B_2 low, dysregulated patients high).\n";
}

// --- microbenchmarks -------------------------------------------------------

/// Analytic model so the benchmark times the search, not LSTM inference.
class FixedModel final : public predict::Forecaster {
 public:
  double predict(const nn::Matrix& x) const override {
    double sum = 0.0;
    for (std::size_t t = 0; t < x.rows(); ++t) sum += x(t, bgms::kCgm);
    return 0.6 * sum / static_cast<double>(x.rows());
  }
};

data::Window bench_window() {
  data::Window w;
  w.features = nn::Matrix(12, bgms::kNumChannels);
  for (std::size_t t = 0; t < 12; ++t) w.features(t, bgms::kCgm) = 100.0;
  w.regime = data::Regime::kBaseline;
  w.target_value = 100.0;
  return w;
}

void BM_AttackSearch(benchmark::State& state) {
  const FixedModel model;
  const attack::EvasionAttack attack(attack::AttackConfig{});
  const auto window = bench_window();
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack.attack_window(model, window));
  }
}
BENCHMARK(BM_AttackSearch);

}  // namespace

int main(int argc, char** argv) {
  auto config = goodones::bench::announce_config();
  goodones::core::RiskProfilingFramework framework(goodones::bench::bgms_domain(), config);
  reproduce_appendix_a(framework);
  return goodones::bench::run_microbenchmarks(argc, argv);
}
