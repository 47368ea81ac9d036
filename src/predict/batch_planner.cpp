#include "predict/batch_planner.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace goodones::predict {

namespace {

bool rows_equal(const nn::Matrix& a, const nn::Matrix& b, std::size_t row) noexcept {
  const auto ra = a.row(row);
  const auto rb = b.row(row);
  return std::equal(ra.begin(), ra.end(), rb.begin());
}

/// Shared-row plan over an indexed subset of same-shape windows.
BatchPlan plan_indexed(std::span<const nn::Matrix* const> windows,
                       std::span<const std::size_t> indices) {
  GO_EXPECTS(!indices.empty());
  const nn::Matrix& base = *windows[indices.front()];
  for (const std::size_t i : indices) {
    GO_EXPECTS(windows[i]->rows() == base.rows() && windows[i]->cols() == base.cols());
  }
  const std::size_t rows = base.rows();

  BatchPlan plan;
  plan.shared_prefix = rows;
  for (std::size_t m = 1; m < indices.size(); ++m) {
    const nn::Matrix& w = *windows[indices[m]];
    std::size_t p = 0;
    while (p < plan.shared_prefix && rows_equal(base, w, p)) ++p;
    plan.shared_prefix = p;
    if (plan.shared_prefix == 0) break;
  }

  // Suffix counted over the rows the prefix does not already cover, so the
  // two never overlap (a batch of identical windows is all prefix).
  plan.shared_suffix = rows - plan.shared_prefix;
  for (std::size_t m = 1; m < indices.size() && plan.shared_suffix > 0; ++m) {
    const nn::Matrix& w = *windows[indices[m]];
    std::size_t s = 0;
    while (s < plan.shared_suffix && rows_equal(base, w, rows - 1 - s)) ++s;
    plan.shared_suffix = s;
  }
  return plan;
}

}  // namespace

std::vector<ProbeCluster> cluster_probes(std::span<const nn::Matrix* const> windows,
                                         std::span<const std::size_t> indices) {
  GO_EXPECTS(!indices.empty());
  const nn::Matrix& head = *windows[indices.front()];
  for (const std::size_t i : indices) {
    GO_EXPECTS(windows[i]->rows() == head.rows() && windows[i]->cols() == head.cols());
  }

  // Greedy pass: track each cluster's running common prefix so a joining
  // window only shrinks it, never re-scans earlier members.
  struct Building {
    std::vector<std::size_t> members;
    std::size_t common_prefix;  // shared leading rows among members so far
  };
  std::vector<Building> building;
  for (const std::size_t i : indices) {
    const nn::Matrix& w = *windows[i];
    bool placed = false;
    for (Building& b : building) {
      const nn::Matrix& rep = *windows[b.members.front()];
      std::size_t p = 0;
      while (p < b.common_prefix && rows_equal(rep, w, p)) ++p;
      if (p > 0) {
        b.members.push_back(i);
        b.common_prefix = p;
        placed = true;
        break;
      }
    }
    if (!placed) building.push_back(Building{{i}, w.rows()});
  }

  // Singletons fold into one residual cluster; its exact plan (usually
  // prefix 0) degrades to the packed whole-sequence path, which is what a
  // planless batch would have run anyway.
  std::vector<ProbeCluster> clusters;
  std::vector<std::size_t> residual;
  for (Building& b : building) {
    if (b.members.size() > 1) {
      clusters.push_back(ProbeCluster{std::move(b.members), {}});
    } else {
      residual.push_back(b.members.front());
    }
  }
  if (!residual.empty()) clusters.push_back(ProbeCluster{std::move(residual), {}});
  for (ProbeCluster& cluster : clusters) {
    cluster.plan = plan_indexed(windows, cluster.indices);
  }
  return clusters;
}

std::vector<ProbeGroup> group_probes(std::span<const nn::Matrix* const> windows) {
  std::vector<ProbeGroup> groups;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const auto same_shape = [&](const ProbeGroup& g) {
      const nn::Matrix& head = *windows[g.indices.front()];
      return head.rows() == windows[i]->rows() && head.cols() == windows[i]->cols();
    };
    const auto it = std::find_if(groups.begin(), groups.end(), same_shape);
    if (it == groups.end()) {
      groups.push_back(ProbeGroup{{i}});
    } else {
      it->indices.push_back(i);
    }
  }
  return groups;
}

}  // namespace goodones::predict
