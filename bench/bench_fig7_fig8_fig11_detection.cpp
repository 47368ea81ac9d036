// Reproduces paper Figs. 7, 8 and 11 (Appendix C): recall, precision and
// F1-score of kNN, OneClassSVM and MAD-GAN under the four training
// strategies, three views of one detector x strategy grid run once.
// Paper headlines, less-vulnerable vs indiscriminate training:
//   Fig. 7  recall rises by 27.5% (kNN) and 16.8% (OneClassSVM); MAD-GAN
//           keeps recall 1.0 at a 75% smaller training set.
//   Fig. 8  precision costs kNN ~5%, gains OneClassSVM ~7.5%, and leaves
//           MAD-GAN flat.
//   Fig. 11 F1 rises by 7.3% (kNN) and 10.9% (OneClassSVM) despite the
//           recall-precision trade-off.
#include "bench_common.hpp"

#include "detect/madgan.hpp"
#include "detect/ocsvm.hpp"

namespace {

using namespace goodones;

struct MetricSpec {
  std::string figure;       ///< e.g. "Fig. 7"
  std::string metric_name;  ///< e.g. "Recall"
  std::string artifact;     ///< CSV file name
  double (*value)(const core::ConfusionMatrix&);
};

const std::vector<detect::DetectorKind> kKinds = {
    detect::DetectorKind::kKnn, detect::DetectorKind::kOcsvm, detect::DetectorKind::kMadGan};

/// Renders one metric of the grid: its table, its CSV and the headline
/// deltas the paper quotes, selective (Less Vulnerable) vs indiscriminate
/// (All Patients) training.
void render_metric(const core::ExperimentResults& results, const MetricSpec& spec) {
  common::AsciiTable table(
      spec.figure + " — " + spec.metric_name + " by detector and training strategy",
      {"Detector", "Less Vulnerable", "More Vulnerable", "Random Samples", "All Patients"});
  common::CsvTable csv({"detector", "strategy", spec.metric_name, "tp", "fp", "fn", "tn",
                        "train_benign", "train_malicious"});

  for (const auto kind : kKinds) {
    std::vector<std::string> row{detect::to_string(kind)};
    for (const core::Strategy strategy : core::all_strategies()) {
      const auto& entry = results.entry(kind, strategy);
      row.push_back(common::fixed(spec.value(entry.pooled), 3));
      csv.add_row({detect::to_string(kind), core::to_string(strategy),
                   common::format_double(spec.value(entry.pooled)),
                   std::to_string(entry.pooled.tp), std::to_string(entry.pooled.fp),
                   std::to_string(entry.pooled.fn), std::to_string(entry.pooled.tn),
                   std::to_string(entry.train_benign),
                   std::to_string(entry.train_malicious)});
    }
    table.add_row(std::move(row));
  }
  table.print();
  bench::save_artifact(csv, spec.artifact);

  std::cout << spec.metric_name << " change, Less Vulnerable vs All Patients:\n";
  for (const auto kind : kKinds) {
    const double selective =
        spec.value(results.entry(kind, core::Strategy::kLessVulnerable).pooled);
    const double indiscriminate =
        spec.value(results.entry(kind, core::Strategy::kAllVictims).pooled);
    const double delta =
        indiscriminate > 0.0 ? (selective - indiscriminate) / indiscriminate : 0.0;
    std::cout << "  " << detect::to_string(kind) << ": " << common::fixed(selective, 3)
              << " vs " << common::fixed(indiscriminate, 3) << " ("
              << common::signed_percent(delta, 1) << ")\n";
  }
}

void reproduce_detection_figures(core::RiskProfilingFramework& framework) {
  const core::ExperimentResults results = framework.run_detector_experiments(kKinds);
  render_metric(results, {"Fig. 7", "Recall", "fig7_recall.csv",
                          [](const core::ConfusionMatrix& cm) { return cm.recall(); }});
  render_metric(results, {"Fig. 8", "Precision", "fig8_precision.csv",
                          [](const core::ConfusionMatrix& cm) { return cm.precision(); }});
  render_metric(results, {"Fig. 11", "F1-score", "fig11_f1.csv",
                          [](const core::ConfusionMatrix& cm) { return cm.f1(); }});

  // Training-set-size note for the MAD-GAN headline (recall 1.0 at a 75%
  // smaller training set in the paper).
  const auto& less = results.entry(detect::DetectorKind::kMadGan,
                                   core::Strategy::kLessVulnerable);
  const auto& all = results.entry(detect::DetectorKind::kMadGan,
                                  core::Strategy::kAllVictims);
  if (all.train_benign > 0) {
    const double reduction = 1.0 - static_cast<double>(less.train_benign) /
                                       static_cast<double>(all.train_benign);
    std::cout << "MAD-GAN training-set size: " << less.train_benign << " vs "
              << all.train_benign << " windows ("
              << common::fixed(100.0 * reduction, 0) << "% reduction; paper: 75%)\n";
  }
}

// --- microbenchmarks -------------------------------------------------------

void BM_MadGanInversion(benchmark::State& state) {
  common::Rng rng(5);
  detect::MadGanConfig config;
  config.epochs = 2;
  config.hidden = 16;
  config.max_train_windows = 64;
  config.calibration_windows = 16;
  config.inversion_steps = static_cast<std::size_t>(state.range(0));
  detect::MadGan detector(config);
  std::vector<nn::Matrix> benign;
  for (int i = 0; i < 64; ++i) {
    nn::Matrix w(12, 4);
    for (std::size_t t = 0; t < 12; ++t) w(t, 0) = 0.3 + rng.normal(0.0, 0.02);
    benign.push_back(std::move(w));
  }
  detector.fit(benign, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.reconstruction_error(benign.front()));
  }
}
BENCHMARK(BM_MadGanInversion)->Arg(5)->Arg(25);

void BM_OcsvmFit(benchmark::State& state) {
  common::Rng rng(7);
  std::vector<nn::Matrix> benign;
  for (int i = 0; i < state.range(0); ++i) {
    nn::Matrix w(12, 4);
    for (std::size_t t = 0; t < 12; ++t) w(t, 0) = 0.3 + rng.normal(0.0, 0.05);
    benign.push_back(std::move(w));
  }
  detect::OcsvmConfig config;
  config.kernel = detect::Kernel::kRbf;
  config.max_train_points = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    detect::OneClassSvm detector(config);
    detector.fit(benign, {});
    benchmark::DoNotOptimize(detector.num_support_vectors());
  }
}
BENCHMARK(BM_OcsvmFit)->Arg(200)->Arg(800)->Unit(benchmark::kMillisecond);

void BM_OcsvmScore(benchmark::State& state) {
  common::Rng rng(9);
  std::vector<nn::Matrix> benign;
  for (int i = 0; i < 400; ++i) {
    nn::Matrix w(12, 4);
    for (std::size_t t = 0; t < 12; ++t) w(t, 0) = 0.3 + rng.normal(0.0, 0.05);
    benign.push_back(std::move(w));
  }
  detect::OcsvmConfig config;
  config.kernel = detect::Kernel::kRbf;
  detect::OneClassSvm detector(config);
  detector.fit(benign, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.anomaly_score(benign.front()));
  }
}
BENCHMARK(BM_OcsvmScore);

void BM_ConfusionMetrics(benchmark::State& state) {
  core::ConfusionMatrix cm;
  cm.tp = 812;
  cm.fp = 43;
  cm.fn = 120;
  cm.tn = 5021;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cm.recall());
    benchmark::DoNotOptimize(cm.precision());
    benchmark::DoNotOptimize(cm.f1());
  }
}
BENCHMARK(BM_ConfusionMetrics);

}  // namespace

int main(int argc, char** argv) {
  auto config = goodones::bench::announce_config();
  goodones::core::RiskProfilingFramework framework(goodones::bench::bgms_domain(), config);
  reproduce_detection_figures(framework);
  return goodones::bench::run_microbenchmarks(argc, argv);
}
