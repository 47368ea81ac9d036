#include "detect/knn.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>

#include "common/error.hpp"
#include "nn/serialize.hpp"

namespace goodones::detect {

namespace {

constexpr std::uint32_t kKnnTag = 0x4B4E4E44;  // "KNND"
/// The Minkowski order an artifact records: 2, Euclidean distance.
constexpr double kMinkowskiP = 2.0;

/// Rows at or below which a k-d tree node stays a leaf.
constexpr std::size_t kLeafRows = 16;

/// Euclidean distance between a query and a training row.
double euclidean(std::span<const double> a, std::span<const double> b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

/// A lower bound on euclidean(query, row) for every row inside the box
/// [lo, hi]. Per feature, the gap from the query to the box is never above
/// the rounded |query - row| (IEEE subtraction is monotone), and the terms
/// are squared and summed in euclidean()'s order, so every partial sum, and
/// the square root, stays at or below the row's: the bound holds exactly.
double box_lower_bound(std::span<const double> query, const double* lo, const double* hi) {
  double sum = 0.0;
  for (std::size_t i = 0; i < query.size(); ++i) {
    const double gap = query[i] < lo[i] ? lo[i] - query[i]
                       : query[i] > hi[i] ? query[i] - hi[i]
                                          : 0.0;
    sum += gap * gap;
  }
  return std::sqrt(sum);
}

/// Deterministic stride subsample of `windows` down to at most `cap` rows.
std::vector<const nn::Matrix*> subsample(const std::vector<nn::Matrix>& windows,
                                         std::size_t cap) {
  std::vector<const nn::Matrix*> out;
  if (cap == 0 || windows.size() <= cap) {
    out.reserve(windows.size());
    for (const auto& w : windows) out.push_back(&w);
    return out;
  }
  out.reserve(cap);
  const double stride = static_cast<double>(windows.size()) / static_cast<double>(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    out.push_back(&windows[static_cast<std::size_t>(static_cast<double>(i) * stride)]);
  }
  return out;
}

bool all_finite(const double* values, std::size_t count) {
  return std::all_of(values, values + count, [](double v) { return std::isfinite(v); });
}

}  // namespace

KnnDetector::KnnDetector(KnnConfig config) : config_(config) {
  GO_EXPECTS(config_.k >= 1);
}

void KnnDetector::fit(const std::vector<nn::Matrix>& benign,
                      const std::vector<nn::Matrix>& malicious) {
  GO_EXPECTS(!benign.empty());
  GO_EXPECTS(!malicious.empty());  // kNN is supervised: needs both classes

  const auto benign_sample = subsample(benign, config_.max_points_per_class);
  const auto malicious_sample = subsample(malicious, config_.max_points_per_class);

  const std::size_t dim = benign_sample.front()->size();
  GO_EXPECTS(dim > 0);
  nn::Matrix points(benign_sample.size() + malicious_sample.size(), dim);
  std::vector<std::uint8_t> labels(points.rows(), 0);
  std::size_t row = 0;
  const auto add = [&](const nn::Matrix& window, std::uint8_t label) {
    // A window's row-major storage is its flattened feature vector.
    GO_EXPECTS(window.size() == dim);
    GO_EXPECTS(all_finite(window.data(), dim));
    std::copy_n(window.data(), dim, points.row(row).begin());
    labels[row++] = label;
  };
  for (const auto* w : benign_sample) add(*w, 0);
  for (const auto* w : malicious_sample) add(*w, 1);

  index_ = build_index(points);
  points_ = std::move(points);
  labels_ = std::move(labels);
}

KnnDetector::Index KnnDetector::build_index(const nn::Matrix& points) {
  const std::size_t n = points.rows();
  const std::size_t dim = points.cols();
  GO_EXPECTS(n > 0 && dim > 0);
  GO_EXPECTS(n <= std::numeric_limits<std::uint32_t>::max());

  // The tree-order copy is permuted in place as nodes split, so every pass
  // below reads a node's rows sequentially.
  Index index;
  index.points = points;
  index.rows.resize(n);
  std::iota(index.rows.begin(), index.rows.end(), 0u);
  index.nodes.push_back({0, static_cast<std::uint32_t>(n), 0});
  std::vector<std::pair<double, std::uint32_t>> keys;  // (split feature, row in node)
  std::vector<double> unsplit;                         // a node's rows before its split
  std::vector<std::uint32_t> unsplit_rows;
  // Nodes are split in creation order; each split appends its two children
  // side by side, so the loop ends once the last leaf is reached.
  for (std::size_t node = 0; node < index.nodes.size(); ++node) {
    const auto [begin, end, child] = index.nodes[node];
    const std::size_t count = end - begin;
    double* const first = index.points.data() + std::size_t{begin} * dim;
    index.boxes.resize((node + 1) * 2 * dim);
    double* lo = index.boxes.data() + node * 2 * dim;
    double* hi = lo + dim;
    std::copy_n(first, dim, lo);
    std::copy_n(first, dim, hi);
    for (std::size_t r = 1; r < count; ++r) {
      const double* row = first + r * dim;
      for (std::size_t i = 0; i < dim; ++i) {
        lo[i] = std::min(lo[i], row[i]);
        hi[i] = std::max(hi[i], row[i]);
      }
    }
    if (count <= kLeafRows) continue;

    // Split at the median of the widest feature; a node of identical rows
    // stays one leaf.
    std::size_t axis = 0;
    for (std::size_t i = 1; i < dim; ++i) {
      if (hi[i] - lo[i] > hi[axis] - lo[axis]) axis = i;
    }
    if (!(hi[axis] > lo[axis])) continue;
    keys.clear();
    for (std::uint32_t r = 0; r < count; ++r) keys.emplace_back(first[r * dim + axis], r);
    const std::size_t half = count / 2;
    std::nth_element(keys.begin(), keys.begin() + half, keys.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    unsplit.assign(first, first + count * dim);
    unsplit_rows.assign(index.rows.begin() + begin, index.rows.begin() + end);
    for (std::size_t r = 0; r < count; ++r) {
      std::copy_n(unsplit.data() + keys[r].second * dim, dim, first + r * dim);
      index.rows[begin + r] = unsplit_rows[keys[r].second];
    }
    const auto mid = static_cast<std::uint32_t>(begin + half);
    index.nodes[node].child = static_cast<std::uint32_t>(index.nodes.size());
    index.nodes.push_back({begin, mid, 0});
    index.nodes.push_back({mid, end, 0});
  }
  return index;
}

// The answer must be bitwise the one of a linear scan that visits rows in
// index order and keeps a max-heap of (distance, label) over the best k,
// replacing its top only on a strictly smaller distance. Ties at the k-th
// distance are settled by that visit order and by the heap's pop order, so
// "the k smallest by (distance, row)" is not the same answer. Hence two
// phases:
//  1. Descend the tree nearer child first. Skip a node when its box bound
//     exceeds the running k-th smallest distance, and collect every visited
//     row not farther than that distance. Both tests are "greater than", so
//     NaN distances (a NaN query) prune nothing and collect everything.
//  2. The running k-th distance never drops below the final one, so every
//     skipped row is strictly farther than the final k-th distance. A row
//     that far never decides what the scan's heap ends with: it is either
//     never pushed or popped before any nearer row. Replaying the collected
//     rows in index order through the scan's rule therefore ends in exactly
//     the scan's heap.
double KnnDetector::malicious_neighbor_fraction(std::span<const double> query) const {
  GO_EXPECTS(points_.rows() > 0);
  GO_EXPECTS(query.size() == points_.cols());
  const std::size_t k = std::min(config_.k, points_.rows());
  const std::size_t dim = query.size();

  struct Candidate {
    std::uint32_t row;
    double dist;
  };
  std::vector<Candidate> candidates;
  std::vector<double> nearest;  // max-heap of the k smallest distances seen
  nearest.reserve(k);
  double kth = std::numeric_limits<double>::infinity();

  struct Pending {
    std::uint32_t node;
    double bound;
  };
  // Each split pops one entry and pushes two, so the stack never holds more
  // than tree depth + 1 entries; median splits keep the depth below 33.
  std::array<Pending, 64> stack;
  std::size_t depth = 0;
  stack[depth++] = {0, 0.0};
  while (depth > 0) {
    const Pending pending = stack[--depth];
    if (pending.bound > kth) continue;
    const Index::Node& node = index_.nodes[pending.node];
    if (node.child == 0) {
      for (std::uint32_t pos = node.begin; pos < node.end; ++pos) {
        const double dist = euclidean(query, {index_.points.data() + pos * dim, dim});
        if (dist > kth) continue;
        candidates.push_back({index_.rows[pos], dist});
        if (nearest.size() < k) {
          nearest.push_back(dist);
          std::push_heap(nearest.begin(), nearest.end());
        } else if (dist < nearest.front()) {
          std::pop_heap(nearest.begin(), nearest.end());
          nearest.back() = dist;
          std::push_heap(nearest.begin(), nearest.end());
        }
        if (nearest.size() == k) kth = nearest.front();
      }
      continue;
    }
    const double* left_box = index_.boxes.data() + std::size_t{node.child} * 2 * dim;
    const double* right_box = left_box + 2 * dim;
    const Pending left{node.child, box_lower_bound(query, left_box, left_box + dim)};
    const Pending right{node.child + 1, box_lower_bound(query, right_box, right_box + dim)};
    // Push the farther child first so the nearer one is searched first.
    const bool left_nearer = !(right.bound < left.bound);
    stack[depth++] = left_nearer ? right : left;
    stack[depth++] = left_nearer ? left : right;
  }

  std::erase_if(candidates, [kth](const Candidate& c) { return c.dist > kth; });
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.row < b.row; });
  std::vector<std::pair<double, std::uint8_t>> heap;
  heap.reserve(k + 1);
  for (const Candidate& c : candidates) {
    if (heap.size() < k) {
      heap.emplace_back(c.dist, labels_[c.row]);
      std::push_heap(heap.begin(), heap.end());
    } else if (c.dist < heap.front().first) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = {c.dist, labels_[c.row]};
      std::push_heap(heap.begin(), heap.end());
    }
  }
  std::size_t malicious = 0;
  for (const auto& [dist, label] : heap) malicious += label;
  return static_cast<double>(malicious) / static_cast<double>(heap.size());
}

void KnnDetector::save(std::ostream& out) const {
  nn::write_u32(out, kKnnTag);
  nn::write_u64(out, config_.k);
  nn::write_f64(out, kMinkowskiP);
  nn::write_u64(out, config_.max_points_per_class);
  nn::write_matrix(out, points_);
  nn::write_u8_vector(out, labels_);
}

void KnnDetector::load(std::istream& in) {
  nn::expect_u32(in, kKnnTag, "kNN detector tag");
  KnnConfig config;
  config.k = nn::read_u64(in, "kNN k");
  const double p = nn::read_f64(in, "kNN minkowski p");
  config.max_points_per_class = nn::read_u64(in, "kNN max points per class");
  nn::Matrix points = nn::read_matrix(in);
  std::vector<std::uint8_t> labels = nn::read_u8_vector(in, "kNN labels");
  if (labels.size() != points.rows()) {
    throw common::SerializationError("kNN artifact label/point count mismatch");
  }
  // k = 0 would make every vote 0/0 = NaN; enforce the constructor's
  // preconditions on artifact-supplied config too. The detector measures
  // Euclidean distance only, so a p word other than 2 names a metric it
  // would not apply.
  if (config.k < 1 || p != kMinkowskiP) {
    throw common::SerializationError("kNN artifact carries an invalid config");
  }
  // An empty reference set fails every query; a label byte above 1 gives
  // its row that many votes (scores above 1.0); fit() never admits a
  // non-finite point, and the index's exactness rests on that.
  if (points.rows() == 0 || points.cols() == 0) {
    throw common::SerializationError("kNN artifact holds an empty reference set");
  }
  if (std::any_of(labels.begin(), labels.end(), [](std::uint8_t label) { return label > 1; })) {
    throw common::SerializationError("kNN artifact carries a label other than 0/1");
  }
  if (!all_finite(points.data(), points.size())) {
    throw common::SerializationError("kNN artifact carries a non-finite reference point");
  }
  Index index = build_index(points);
  config_ = config;
  points_ = std::move(points);
  labels_ = std::move(labels);
  index_ = std::move(index);
}

double KnnDetector::anomaly_score(const nn::Matrix& window) const {
  // A window's row-major storage is its flattened feature vector.
  return malicious_neighbor_fraction({window.data(), window.size()});
}

bool KnnDetector::flags(const nn::Matrix& window) const {
  return anomaly_score(window) > 0.5;
}

}  // namespace goodones::detect
