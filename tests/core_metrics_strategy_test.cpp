#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/strategy.hpp"
#include "domains/registry.hpp"

namespace goodones::core {
namespace {

TEST(ConfusionMatrix, AddRoutesToCells) {
  ConfusionMatrix cm;
  cm.add(true, true);    // tp
  cm.add(true, false);   // fn
  cm.add(false, true);   // fp
  cm.add(false, false);  // tn
  EXPECT_EQ(cm.tp, 1u);
  EXPECT_EQ(cm.fn, 1u);
  EXPECT_EQ(cm.fp, 1u);
  EXPECT_EQ(cm.tn, 1u);
  EXPECT_EQ(cm.total(), 4u);
}

TEST(ConfusionMatrix, MetricsKnownValues) {
  ConfusionMatrix cm;
  cm.tp = 8;
  cm.fn = 2;
  cm.fp = 4;
  cm.tn = 86;
  EXPECT_DOUBLE_EQ(cm.recall(), 0.8);
  EXPECT_DOUBLE_EQ(cm.precision(), 8.0 / 12.0);
  EXPECT_DOUBLE_EQ(cm.false_negative_rate(), 0.2);
  const double f1 = 2.0 * 0.8 * (8.0 / 12.0) / (0.8 + 8.0 / 12.0);
  EXPECT_NEAR(cm.f1(), f1, 1e-12);
}

TEST(ConfusionMatrix, RecallPlusFnrIsOne) {
  ConfusionMatrix cm;
  cm.tp = 3;
  cm.fn = 7;
  EXPECT_DOUBLE_EQ(cm.recall() + cm.false_negative_rate(), 1.0);
}

TEST(ConfusionMatrix, DegenerateCases) {
  ConfusionMatrix empty;
  EXPECT_DOUBLE_EQ(empty.recall(), 0.0);
  EXPECT_DOUBLE_EQ(empty.precision(), 1.0);  // vacuously precise
  EXPECT_DOUBLE_EQ(empty.f1(), 0.0);

  ConfusionMatrix missed_everything;
  missed_everything.fn = 5;
  EXPECT_DOUBLE_EQ(missed_everything.precision(), 0.0);
  EXPECT_DOUBLE_EQ(missed_everything.recall(), 0.0);
}

TEST(ConfusionMatrix, MergeAccumulates) {
  ConfusionMatrix a;
  a.tp = 1;
  a.fp = 2;
  ConfusionMatrix b;
  b.tp = 3;
  b.tn = 4;
  a.merge(b);
  EXPECT_EQ(a.tp, 4u);
  EXPECT_EQ(a.fp, 2u);
  EXPECT_EQ(a.tn, 4u);
}

TEST(Strategy, NamesAndOrder) {
  const auto strategies = all_strategies();
  EXPECT_STREQ(to_string(strategies[0]), "Less Vulnerable");
  EXPECT_STREQ(to_string(strategies[1]), "More Vulnerable");
  EXPECT_STREQ(to_string(strategies[2]), "Random Samples");
  EXPECT_STREQ(to_string(strategies[3]), "All Victims");
}

VulnerabilityClusters paper_clusters() {
  VulnerabilityClusters clusters;
  clusters.less_vulnerable = {5, 7, 8};  // A_5, B_1, B_2
  clusters.more_vulnerable = {0, 1, 2, 3, 4, 6, 9, 10, 11};
  return clusters;
}

TEST(Strategy, LessAndMoreVulnerableSelectClusters) {
  const auto clusters = paper_clusters();
  EXPECT_EQ(select_victims(Strategy::kLessVulnerable, clusters, 12, 3, 0),
            clusters.less_vulnerable);
  EXPECT_EQ(select_victims(Strategy::kMoreVulnerable, clusters, 12, 3, 0),
            clusters.more_vulnerable);
}

TEST(Strategy, AllVictimsSelectsEveryone) {
  const auto selected = select_victims(Strategy::kAllVictims, paper_clusters(), 12, 3, 0);
  ASSERT_EQ(selected.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(selected[i], i);
}

TEST(Strategy, RandomSamplesAreDistinctAndDeterministic) {
  const auto clusters = paper_clusters();
  const auto first = select_victims(Strategy::kRandomSamples, clusters, 12, 3, 77);
  const auto again = select_victims(Strategy::kRandomSamples, clusters, 12, 3, 77);
  EXPECT_EQ(first, again);
  ASSERT_EQ(first.size(), 3u);
  const std::set<std::size_t> unique(first.begin(), first.end());
  EXPECT_EQ(unique.size(), 3u);
  for (const auto p : first) EXPECT_LT(p, 12u);
}

TEST(Strategy, DifferentRunSeedsVaryTheSample) {
  const auto clusters = paper_clusters();
  std::set<std::vector<std::size_t>> samples;
  for (std::uint64_t run = 0; run < 10; ++run) {
    samples.insert(select_victims(Strategy::kRandomSamples, clusters, 12, 3, 1000 + run));
  }
  EXPECT_GT(samples.size(), 3u);
}

TEST(Strategy, EmptyClusterThrows) {
  VulnerabilityClusters empty;
  EXPECT_THROW((void)select_victims(Strategy::kLessVulnerable, empty, 12, 3, 0),
               common::PreconditionError);
}

TEST(Config, PresetsDiffer) {
  const auto fast = FrameworkConfig::fast();
  const auto full = FrameworkConfig::full();
  EXPECT_LT(fast.population.train_steps, full.population.train_steps);
  EXPECT_LT(fast.detectors.madgan.epochs, full.detectors.madgan.epochs);
  EXPECT_EQ(full.detectors.madgan.epochs, 100u);  // paper Appendix B
  EXPECT_EQ(full.random_runs, 10u);               // paper: 10 repetitions
  EXPECT_NE(config_fingerprint(fast), config_fingerprint(full));
}

TEST(Config, PaperGeometryDefaults) {
  const FrameworkConfig config;
  EXPECT_EQ(config.window.seq_len, 12u);  // paper Appendix B sequence length
  EXPECT_EQ(config.window.horizon, 6u);   // 30-minute forecast at 5-min cadence
  EXPECT_EQ(config.detectors.knn.k, 7u);  // paper Appendix B
  EXPECT_DOUBLE_EQ(config.detectors.ocsvm.nu, 0.5);
  EXPECT_EQ(config.random_victims, 3u);
}

TEST(Config, FingerprintIsStable) {
  // Registry keys and experiment-cache paths embed the fingerprint, so a
  // moved value orphans every persisted bundle: pin literals, not a
  // self-comparison.
  EXPECT_EQ(config_fingerprint(FrameworkConfig::fast()), 0xA85992638CF13F99ULL);
  EXPECT_EQ(config_fingerprint(FrameworkConfig::full()), 0x2445A73195D0CF89ULL);
  const std::vector<std::pair<std::string, std::uint64_t>> prepared = {
      {"bgms", 0xE712900CF28140AAULL},
      {"synthtel", 0x4B5397E80686B4D5ULL},
      {"av", 0x3987B90EEA62EEE9ULL},
  };
  ASSERT_EQ(domains::available_domains().size(), prepared.size());
  for (const auto& [name, fingerprint] : prepared) {
    const auto domain = domains::make_domain(name);
    EXPECT_EQ(config_fingerprint(domain->prepare(FrameworkConfig::fast())), fingerprint)
        << name;
  }
}

TEST(Config, FingerprintSensitiveToEachKnob) {
  const auto base = FrameworkConfig::fast();
  auto modified = base;
  modified.seed += 1;
  EXPECT_NE(config_fingerprint(base), config_fingerprint(modified));

  modified = base;
  modified.detectors.knn.k = 9;
  EXPECT_NE(config_fingerprint(base), config_fingerprint(modified));

  modified = base;
  modified.detectors.ocsvm.coef0 += 0.5;
  EXPECT_NE(config_fingerprint(base), config_fingerprint(modified));

  modified = base;
  modified.evaluation_campaign.attack.value_candidates += 1;
  EXPECT_NE(config_fingerprint(base), config_fingerprint(modified));

  modified = base;
  modified.linkage = cluster::Linkage::kWard;
  EXPECT_NE(config_fingerprint(base), config_fingerprint(modified));
}

}  // namespace
}  // namespace goodones::core
