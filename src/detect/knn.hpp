// k-nearest-neighbors anomaly classifier.
//
// Mirrors the paper's scikit-learn KNeighborsClassifier configuration
// (Appendix B): 7 neighbors, uniform weights, Minkowski metric with p = 2
// (Euclidean distance, the only metric this detector measures).
// Supervised: trained on benign windows plus malicious windows from the
// simulated attack; a window is flagged when the majority of its k nearest
// training points are malicious.
//
// Queries are answered from an exact k-d tree over the training points, as
// scikit-learn's default algorithm does for low-dimensional inputs. Every
// vote is bitwise the one a linear scan over the rows in index order casts,
// ties at the k-th distance included (see knn.cpp).
#pragma once

#include <cstdint>
#include <span>

#include "detect/detector.hpp"

namespace goodones::detect {

struct KnnConfig {
  std::size_t k = 7;
  /// Caps per-class training points (deterministic stride subsampling);
  /// 0 = unlimited. Bounds the reference set the neighbor index holds and,
  /// for wide inputs the index cannot prune, the per-query cost.
  std::size_t max_points_per_class = 6000;
};

class KnnDetector final : public AnomalyDetector {
 public:
  explicit KnnDetector(KnnConfig config = {});

  /// Requires finite training points: the index's exactness rests on it.
  void fit(const std::vector<nn::Matrix>& benign,
           const std::vector<nn::Matrix>& malicious) override;

  /// Fraction of the k nearest neighbors that are malicious.
  double anomaly_score(const nn::Matrix& window) const override;

  /// Majority vote of the k nearest neighbors.
  bool flags(const nn::Matrix& window) const override;

  bool flags_from_score(const nn::Matrix& /*window*/, double score) const override {
    return score > 0.5;
  }

  std::string name() const override { return "kNN"; }

  /// Persists config + training points (the index is rebuilt on load); a
  /// reloaded detector votes bit-identically on every query.
  void save(std::ostream& out) const override;
  void load(std::istream& in) override;

  /// Per-sample classification, as in the paper's Fig. 5.
  InputGranularity granularity() const override { return InputGranularity::kSample; }

  std::size_t train_size() const noexcept { return points_.rows(); }

  /// Flattened training-point width (0 before fit).
  std::size_t input_width() const noexcept override { return points_.cols(); }

 private:
  /// k-d tree over points_: derived state, rebuilt by fit() and load() and
  /// never serialized.
  struct Index {
    struct Node {
      std::uint32_t begin = 0;  ///< first tree-order row
      std::uint32_t end = 0;    ///< one past the last tree-order row
      std::uint32_t child = 0;  ///< left child (right = child + 1); 0 = leaf
    };
    std::vector<Node> nodes;
    std::vector<double> boxes;          ///< per node: dim lows, then dim highs
    nn::Matrix points;                  ///< points_ rows in tree order
    std::vector<std::uint32_t> rows;    ///< points_ row of each tree-order row
  };

  static Index build_index(const nn::Matrix& points);
  double malicious_neighbor_fraction(std::span<const double> query) const;

  KnnConfig config_;
  nn::Matrix points_;           // train points, one flattened window per row
  std::vector<std::uint8_t> labels_;  // 1 = malicious
  Index index_;
};

}  // namespace goodones::detect
