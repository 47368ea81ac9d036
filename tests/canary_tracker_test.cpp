// Deterministic + chaos tests for the canary state machine (serve::CanaryTracker).
//
// The tracker is the concurrency-critical piece of the canary subsystem:
// scoring threads race begin_mirror/accumulate against install/finish from
// the lifecycle side, and the promotion policy must decide AT MOST once per
// epoch no matter how the interleaving falls. The chaos suites here drive
// seeded multi-threaded op sequences (reproducible: every thread's schedule
// is a pure function of its seed) and then assert the invariants that make
// the serving-layer guarantees hold:
//
//   * finish() succeeds at most once per epoch (no double promote/rollback);
//   * nothing is mirrored or accumulated after a finish (rollback) —
//     stale-epoch accumulations are rejected, begin_mirror returns nullopt;
//   * the final metrics equal a single-threaded recomputation of exactly
//     the accepted delta set — order-independence is what lets operators
//     trust the gauges regardless of thread scheduling;
//   * with auto_decide on, concurrent accumulations surface at most ONE
//     policy decision per epoch.
//
// The deterministic half pins the policy itself: the evidence gate, the
// breach-strike ladder to rollback, the first-clean-evaluation promote, and
// the splitmix sampling determinism (two identical streams mirror identical
// subsets; the subset survives re-install).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "serve/canary.hpp"

namespace goodones::serve {
namespace {

WindowDelta clean_delta(Cluster cluster, double risk) {
  WindowDelta delta;
  delta.cluster = cluster;
  delta.primary_risk = risk;
  delta.candidate_risk = risk;
  return delta;
}

WindowDelta breaching_delta(Cluster cluster) {
  WindowDelta delta;
  delta.cluster = cluster;
  delta.candidate_flagged = true;  // primary did not flag: pure drift
  delta.state_flip = true;
  delta.primary_risk = 0.1;
  delta.candidate_risk = 0.9;
  return delta;
}

TEST(CanaryTracker, InstallArmsAndResets) {
  CanaryTracker tracker;
  EXPECT_FALSE(tracker.armed());
  EXPECT_EQ(tracker.state(), CanaryState::kIdle);

  const std::uint64_t epoch = tracker.install(7);
  EXPECT_EQ(epoch, 1u);
  EXPECT_TRUE(tracker.armed());
  EXPECT_EQ(tracker.state(), CanaryState::kMirroring);
  EXPECT_EQ(tracker.candidate_generation(), 7u);

  const std::vector<WindowDelta> deltas{clean_delta(Cluster::kLessVulnerable, 0.2)};
  EXPECT_TRUE(tracker.accumulate(epoch, deltas).accepted);
  EXPECT_EQ(tracker.metrics().mirrored_windows, 1u);

  // Re-install: fresh epoch, all evidence gone, sampling sequences reset.
  const std::uint64_t next = tracker.install(8);
  EXPECT_EQ(next, 2u);
  EXPECT_EQ(tracker.metrics().mirrored_windows, 0u);
  EXPECT_EQ(tracker.candidate_generation(), 8u);
}

TEST(CanaryTracker, StaleEpochAndFinishedEpochAreRejected) {
  CanaryTracker tracker;
  const std::uint64_t first = tracker.install(1);
  const std::uint64_t second = tracker.install(2);
  ASSERT_NE(first, second);

  const std::vector<WindowDelta> deltas{clean_delta(Cluster::kLessVulnerable, 0.5)};
  // An accumulation carrying the abandoned epoch never lands.
  EXPECT_FALSE(tracker.accumulate(first, deltas).accepted);
  EXPECT_EQ(tracker.metrics().mirrored_windows, 0u);

  // finish() is exactly-once, and nothing mirrors after it.
  EXPECT_FALSE(tracker.finish(first));
  EXPECT_TRUE(tracker.finish(second));
  EXPECT_FALSE(tracker.finish(second));
  EXPECT_FALSE(tracker.armed());
  EXPECT_FALSE(tracker.begin_mirror("SA_0").has_value());
  EXPECT_FALSE(tracker.accumulate(second, deltas).accepted);
}

TEST(CanaryTracker, SamplingIsDeterministicPerStreamAndAcrossInstalls) {
  CanaryPolicy policy;
  policy.sample_per_million = 300000;  // a strict subset: ~30%
  policy.auto_decide = false;
  CanaryTracker a(policy);
  CanaryTracker b(policy);
  a.install(1);
  b.install(1);

  const std::vector<std::string> entities{"SA_0", "SA_1", "SB_0"};
  std::vector<bool> subset_a;
  std::vector<bool> subset_b;
  for (int seq = 0; seq < 512; ++seq) {
    for (const std::string& entity : entities) {
      subset_a.push_back(a.begin_mirror(entity).has_value());
      subset_b.push_back(b.begin_mirror(entity).has_value());
    }
  }
  // Two identical streams mirror IDENTICAL subsets — no wall clock anywhere.
  EXPECT_EQ(subset_a, subset_b);
  const std::size_t mirrored =
      static_cast<std::size_t>(std::count(subset_a.begin(), subset_a.end(), true));
  EXPECT_GT(mirrored, 0u);
  EXPECT_LT(mirrored, subset_a.size());

  // A new candidate on the same tracker replays the same subset: install()
  // resets the per-entity sequences, so every candidate is measured against
  // the same deterministic slice of an identical stream.
  a.install(2);
  std::vector<bool> subset_again;
  for (int seq = 0; seq < 512; ++seq) {
    for (const std::string& entity : entities) {
      subset_again.push_back(a.begin_mirror(entity).has_value());
    }
  }
  EXPECT_EQ(subset_a, subset_again);
}

TEST(CanaryTracker, EvidenceGateThenCleanPromote) {
  CanaryPolicy policy;
  policy.min_mirrored_windows = 8;
  policy.breach_strikes = 2;
  CanaryTracker tracker(policy);
  const std::uint64_t epoch = tracker.install(3);

  const std::vector<WindowDelta> one{clean_delta(Cluster::kMoreVulnerable, 0.3)};
  for (int i = 0; i < 7; ++i) {
    const auto result = tracker.accumulate(epoch, one);
    ASSERT_TRUE(result.accepted);
    EXPECT_FALSE(result.decision.has_value()) << "decided before the evidence gate";
  }
  const auto result = tracker.accumulate(epoch, one);  // window #8: gate opens
  ASSERT_TRUE(result.accepted);
  ASSERT_TRUE(result.decision.has_value());
  EXPECT_EQ(*result.decision, CanaryDecision::kPromote);
  EXPECT_EQ(tracker.metrics().evaluations, 1u);

  // At most one decision per epoch: evidence keeps accumulating, the
  // decision does not repeat.
  const auto more = tracker.accumulate(epoch, one);
  EXPECT_TRUE(more.accepted);
  EXPECT_FALSE(more.decision.has_value());
}

TEST(CanaryTracker, BreachStrikesDecideRollback) {
  CanaryPolicy policy;
  policy.min_mirrored_windows = 4;
  policy.breach_strikes = 3;
  policy.max_flag_rate_delta = 0.1;
  CanaryTracker tracker(policy);
  const std::uint64_t epoch = tracker.install(4);

  const std::vector<WindowDelta> bad{breaching_delta(Cluster::kLessVulnerable)};
  std::vector<CanaryDecision> decisions;
  for (int i = 0; i < 16 && decisions.empty(); ++i) {
    const auto result = tracker.accumulate(epoch, bad);
    ASSERT_TRUE(result.accepted);
    if (result.decision.has_value()) decisions.push_back(*result.decision);
  }
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions.front(), CanaryDecision::kRollback);
  // The third breaching evaluation is the one that decides (strikes = 3):
  // windows 4, 5, 6 evaluate, so the decision lands on mirrored window 6.
  EXPECT_EQ(tracker.metrics().mirrored_windows, 6u);
  EXPECT_EQ(tracker.metrics().breach_streak, 3u);
}

TEST(CanaryTracker, RiskDistanceBreachesWhenEnabled) {
  CanaryPolicy policy;
  policy.min_mirrored_windows = 4;
  policy.breach_strikes = 1;
  policy.max_flag_rate_delta = 1.0;   // flag drift can never breach
  policy.max_risk_distance = 0.25;    // distribution drift can
  CanaryTracker tracker(policy);
  const std::uint64_t epoch = tracker.install(5);

  // Identical flags, shifted risks: |0.9 - 0.1| Wasserstein = 0.8 > 0.25.
  const std::vector<WindowDelta> shifted{breaching_delta(Cluster::kMoreVulnerable)};
  std::vector<WindowDelta> quiet = shifted;
  quiet[0].candidate_flagged = false;
  std::optional<CanaryDecision> decision;
  for (int i = 0; i < 8 && !decision.has_value(); ++i) {
    decision = tracker.accumulate(epoch, quiet).decision;
  }
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(*decision, CanaryDecision::kRollback);
}

TEST(CanaryTracker, NanOrNegativeBoundIsRefused) {
  // A NaN bound never breaches, so every candidate would promote; a
  // negative one always does, so every candidate would roll back.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {nan, -0.1}) {
    CanaryPolicy flag_delta;
    flag_delta.max_flag_rate_delta = bad;
    EXPECT_THROW(CanaryTracker{flag_delta}, common::PreconditionError) << bad;
    CanaryPolicy risk_distance;
    risk_distance.max_risk_distance = bad;
    EXPECT_THROW(CanaryTracker{risk_distance}, common::PreconditionError) << bad;
  }
  CanaryPolicy zero;
  zero.max_flag_rate_delta = 0.0;  // any drift breaches: a legal, strict policy
  EXPECT_NO_THROW(CanaryTracker{zero});
}

TEST(CanaryTracker, DroppedRiskSamplesAreCountedNotSilent) {
  CanaryPolicy policy;
  policy.auto_decide = false;
  policy.max_risk_samples_per_cluster = 4;
  CanaryTracker tracker(policy);
  const std::uint64_t epoch = tracker.install(6);
  const std::vector<WindowDelta> one{clean_delta(Cluster::kLessVulnerable, 0.1)};
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(tracker.accumulate(epoch, one).accepted);
  const CanaryMetrics metrics = tracker.metrics();
  const CanaryClusterMetrics& cluster = metrics.clusters[0];
  EXPECT_EQ(cluster.mirrored_windows, 10u);  // counters stay exact
  EXPECT_EQ(cluster.primary_risks.size(), 4u);
  EXPECT_EQ(cluster.dropped_risk_samples, 6u);
}

// ---------------------------------------------------------------------------
// Chaos: seeded interleavings of score/install/finish from many threads.
// ---------------------------------------------------------------------------

/// One accepted accumulation, as logged by the thread that performed it.
struct AcceptedLog {
  std::uint64_t epoch = 0;
  std::vector<WindowDelta> deltas;
};

/// Deterministic delta batch for (seed, step): the recomputation below must
/// regenerate EXACTLY what the thread accumulated.
std::vector<WindowDelta> chaos_deltas(std::uint64_t seed, std::uint64_t step) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + step);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_real_distribution<double> risk(0.0, 1.0);
  const std::size_t count = 1 + rng() % 3;
  std::vector<WindowDelta> deltas;
  for (std::size_t i = 0; i < count; ++i) {
    WindowDelta delta;
    delta.cluster = coin(rng) ? Cluster::kMoreVulnerable : Cluster::kLessVulnerable;
    delta.primary_flagged = coin(rng) == 1;
    delta.candidate_flagged = coin(rng) == 1;
    delta.state_flip = delta.primary_flagged != delta.candidate_flagged;
    delta.primary_risk = risk(rng);
    delta.candidate_risk = risk(rng);
    deltas.push_back(delta);
  }
  return deltas;
}

std::vector<double> sorted(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values;
}

TEST(CanaryTrackerChaos, FinishIsExactlyOncePerEpochAndMetricsAreOrderIndependent) {
  CanaryPolicy policy;
  policy.auto_decide = false;  // the lifecycle chaos; the policy race is below
  policy.sample_per_million = 1000000;  // every request mirrors: max pressure
  CanaryTracker tracker(policy);
  tracker.install(1);

  constexpr int kThreads = 6;
  constexpr int kStepsPerThread = 400;

  std::mutex log_mutex;
  std::vector<AcceptedLog> accepted;
  std::map<std::uint64_t, int> finishes;  // epoch -> successful finish count

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 schedule(0xC0FFEE00 + static_cast<std::uint64_t>(t));
      std::vector<AcceptedLog> local_accepted;
      std::vector<std::pair<std::uint64_t, bool>> local_finishes;
      for (int step = 0; step < kStepsPerThread; ++step) {
        const std::uint64_t roll = schedule() % 100;
        if (roll < 80) {
          // Score path: sample, then accumulate against the epoch the
          // sampler returned (exactly what ScoringService::mirror_one does).
          const std::string entity = "E_" + std::to_string(schedule() % 4);
          const auto epoch = tracker.begin_mirror(entity);
          if (!epoch.has_value()) continue;
          const std::uint64_t delta_seed = static_cast<std::uint64_t>(t);
          const auto deltas = chaos_deltas(delta_seed, static_cast<std::uint64_t>(step));
          if (tracker.accumulate(*epoch, std::span<const WindowDelta>(deltas)).accepted) {
            local_accepted.push_back({*epoch, deltas});
          }
        } else if (roll < 90) {
          // Lifecycle: resolve whatever epoch looks live right now. Racing
          // guesses are the point — only one can ever win per epoch.
          const std::uint64_t guess = tracker.epoch();
          const bool won = tracker.finish(guess);
          local_finishes.emplace_back(guess, won);
        } else {
          (void)tracker.install(schedule() % 1000 + 2);
        }
      }
      const std::lock_guard<std::mutex> lock(log_mutex);
      accepted.insert(accepted.end(), local_accepted.begin(), local_accepted.end());
      for (const auto& [epoch, won] : local_finishes) {
        if (won) finishes[epoch] += 1;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Invariant 1: no epoch was finished twice (the double-promote guard).
  for (const auto& [epoch, count] : finishes) {
    EXPECT_EQ(count, 1) << "epoch " << epoch << " finished " << count << " times";
  }

  // Invariant 2: the final metrics are EXACTLY the single-threaded fold of
  // the accepted accumulations tagged with the final epoch — regardless of
  // which threads accumulated them in which order.
  const CanaryMetrics metrics = tracker.metrics();
  CanaryMetrics expected;
  std::array<std::vector<double>, 2> expected_primary;
  std::array<std::vector<double>, 2> expected_candidate;
  for (const AcceptedLog& log : accepted) {
    if (log.epoch != metrics.epoch) continue;
    expected.mirrored_requests += 1;
    expected.mirrored_windows += log.deltas.size();
    for (const WindowDelta& delta : log.deltas) {
      const auto c = static_cast<std::size_t>(delta.cluster);
      expected.clusters[c].mirrored_windows += 1;
      expected.clusters[c].primary_flags += delta.primary_flagged ? 1 : 0;
      expected.clusters[c].candidate_flags += delta.candidate_flagged ? 1 : 0;
      expected.clusters[c].state_flips += delta.state_flip ? 1 : 0;
      expected_primary[c].push_back(delta.primary_risk);
      expected_candidate[c].push_back(delta.candidate_risk);
    }
  }
  EXPECT_EQ(metrics.mirrored_requests, expected.mirrored_requests);
  EXPECT_EQ(metrics.mirrored_windows, expected.mirrored_windows);
  for (std::size_t c = 0; c < metrics.clusters.size(); ++c) {
    const CanaryClusterMetrics& got = metrics.clusters[c];
    EXPECT_EQ(got.mirrored_windows, expected.clusters[c].mirrored_windows) << c;
    EXPECT_EQ(got.primary_flags, expected.clusters[c].primary_flags) << c;
    EXPECT_EQ(got.candidate_flags, expected.clusters[c].candidate_flags) << c;
    EXPECT_EQ(got.state_flips, expected.clusters[c].state_flips) << c;
    EXPECT_EQ(got.dropped_risk_samples, 0u) << c;  // well under the cap here
    // The stored samples are an order-dependent interleaving, but as
    // MULTISETS they match, which is all the derived metrics consume.
    EXPECT_EQ(sorted(got.primary_risks), sorted(expected_primary[c])) << c;
    EXPECT_EQ(sorted(got.candidate_risks), sorted(expected_candidate[c])) << c;
    // And the derived metrics are therefore bitwise order-independent.
    CanaryClusterMetrics recomputed = expected.clusters[c];
    recomputed.primary_risks = expected_primary[c];
    recomputed.candidate_risks = expected_candidate[c];
    EXPECT_EQ(got.flag_rate_delta(), recomputed.flag_rate_delta()) << c;
    EXPECT_EQ(got.risk_distance(), recomputed.risk_distance()) << c;
  }
}

TEST(CanaryTrackerChaos, AutoDecisionSurfacesAtMostOncePerEpoch) {
  CanaryPolicy policy;
  policy.min_mirrored_windows = 16;
  policy.breach_strikes = 1;
  policy.max_flag_rate_delta = 0.05;
  CanaryTracker tracker(policy);

  constexpr int kThreads = 6;
  constexpr int kRounds = 40;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t epoch = tracker.install(static_cast<std::uint64_t>(round) + 1);
    std::atomic<int> decisions{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Every thread pushes breaching evidence as fast as it can; the
        // decided_ latch must collapse the race to exactly one decision.
        const std::vector<WindowDelta> bad{
            breaching_delta(t % 2 ? Cluster::kMoreVulnerable
                                  : Cluster::kLessVulnerable)};
        for (int i = 0; i < 32; ++i) {
          const auto result =
              tracker.accumulate(epoch, std::span<const WindowDelta>(bad));
          if (result.decision.has_value()) {
            EXPECT_EQ(*result.decision, CanaryDecision::kRollback);
            decisions.fetch_add(1);
            EXPECT_TRUE(tracker.finish(epoch));
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(decisions.load(), 1) << "round " << round;
    // The loser threads' late accumulations were rejected post-finish:
    // the evidence count can never exceed what was accepted while live.
    EXPECT_EQ(tracker.state(), CanaryState::kIdle);
  }
}

}  // namespace
}  // namespace goodones::serve
