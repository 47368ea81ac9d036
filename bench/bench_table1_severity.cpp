// Reproduces paper Table I: severity coefficients for glycemic state
// transitions, plus microbenchmarks of the risk-formula kernels under the
// schedule built from it (SeveritySchedule::paper_default).
#include "bench_common.hpp"

#include "data/labels.hpp"
#include "risk/schedule.hpp"
#include "risk/severity.hpp"

namespace {

using namespace goodones;

void reproduce_table1() {
  common::AsciiTable table("Table I — Severity coefficients for state transitions",
                           {"Benign", "Adversarial", "Severity Coefficient (S)"});
  common::CsvTable csv({"benign", "adversarial", "severity"});
  for (const auto& entry : risk::severity_table()) {
    table.add_row({data::to_string(entry.benign), data::to_string(entry.adversarial),
                   common::fixed(entry.coefficient, 0)});
    csv.add_row({data::to_string(entry.benign), data::to_string(entry.adversarial),
                 common::format_double(entry.coefficient)});
  }
  table.print();
  bench::save_artifact(csv, "table1_severity.csv");
}

void BM_SeverityLookup(benchmark::State& state) {
  const auto schedule = risk::SeveritySchedule::paper_default();
  const auto states = {data::StateLabel::kLow, data::StateLabel::kNormal,
                       data::StateLabel::kHigh};
  for (auto _ : state) {
    for (const auto from : states) {
      for (const auto to : states) {
        benchmark::DoNotOptimize(schedule.coefficient(from, to));
      }
    }
  }
}
BENCHMARK(BM_SeverityLookup);

void BM_InstantaneousRisk(benchmark::State& state) {
  const auto schedule = risk::SeveritySchedule::paper_default();
  attack::WindowOutcome outcome;
  outcome.attack.benign_prediction = 95.0;
  outcome.attack.adversarial_prediction = 240.0;
  outcome.benign_predicted_state = data::StateLabel::kNormal;
  outcome.adversarial_predicted_state = data::StateLabel::kHigh;
  for (auto _ : state) {
    benchmark::DoNotOptimize(risk::instantaneous_risk(outcome, schedule));
  }
}
BENCHMARK(BM_InstantaneousRisk);

void BM_RiskProfileConstruction(benchmark::State& state) {
  const auto schedule = risk::SeveritySchedule::paper_default();
  std::vector<attack::WindowOutcome> outcomes(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    outcomes[i].attack.benign_prediction = 90.0 + static_cast<double>(i % 40);
    outcomes[i].attack.adversarial_prediction = 200.0 + static_cast<double>(i % 100);
    outcomes[i].benign_predicted_state = data::StateLabel::kNormal;
    outcomes[i].adversarial_predicted_state = data::StateLabel::kHigh;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(risk::build_profile("A_0", outcomes, schedule));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RiskProfileConstruction)->Arg(256)->Arg(1024)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  reproduce_table1();
  return goodones::bench::run_microbenchmarks(argc, argv);
}
