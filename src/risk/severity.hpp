// Default severity coefficients for state transitions (paper Table I),
// expressed over the generic state vocabulary.
//
// Exponential coefficients encode the non-linear impact of misdiagnoses:
// mispredicting a low-state victim as high triggers the worst possible
// response on an already-low victim (S = 64; in the BGMS case study, an
// insulin overdose on a hypoglycemic patient), while mispredicting normal
// as low merely withholds a response (S = 2). Domains that need different
// weights supply their own risk::SeveritySchedule (see risk/schedule.hpp)
// through their DomainAdapter.
#pragma once

#include <vector>

#include "data/labels.hpp"

namespace goodones::risk {

/// One row of Table I.
struct SeverityEntry {
  data::StateLabel benign;
  data::StateLabel adversarial;
  double coefficient;
};

/// The paper's Table I, in its printed order (most to least severe).
/// SeveritySchedule::paper_default() weighs risk with it; identity
/// transitions, which Table I leaves out, weigh 1 there.
const std::vector<SeverityEntry>& severity_table();

}  // namespace goodones::risk
