#include "predict/bilstm_forecaster.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "predict/batch_planner.hpp"

namespace goodones::predict {

namespace {

/// RNG used only for weight initialization, derived from the config seed.
common::Rng init_rng(const ForecasterConfig& config) {
  return common::Rng(config.seed * 0xD1342543DE82EF95ULL + 0x2545F4914F6CDD1DULL);
}

/// dLoss/d(head input) (1 x 2H) routed to the two cells: the forward cell's
/// hidden-state gradients (T x H, nonzero only at row T - 1) and the
/// backward cell's for its single step (1 x H).
struct CellGrads {
  nn::Matrix fwd;
  nn::Matrix bwd;
};

CellGrads split_state_grad(const nn::Matrix& grad_state, std::size_t steps) {
  const std::size_t h = grad_state.cols() / 2;
  const auto g = grad_state.row(0);
  CellGrads grads{nn::Matrix(steps, h), nn::Matrix(1, h)};
  std::copy(g.begin(), g.begin() + static_cast<std::ptrdiff_t>(h),
            grads.fwd.row(steps - 1).begin());
  std::copy(g.begin() + static_cast<std::ptrdiff_t>(h), g.end(), grads.bwd.row(0).begin());
  return grads;
}

}  // namespace

data::MinMaxScaler fit_forecaster_scaler(const nn::Matrix& train_values,
                                         std::size_t target_channel,
                                         double target_min, double target_max) {
  data::MinMaxScaler scaler;
  scaler.fit(train_values);
  scaler.set_column_range(target_channel, target_min, target_max);
  return scaler;
}

BiLstmForecaster::BiLstmForecaster(const ForecasterConfig& config, data::MinMaxScaler scaler)
    : config_(config),
      scaler_(std::move(scaler)),
      init_rng_(init_rng(config)),
      fwd_cell_(scaler_.num_features(), config.hidden, init_rng_),
      bwd_cell_(scaler_.num_features(), config.hidden, init_rng_),
      head1_(2 * config.hidden, config.head_hidden, nn::Activation::kTanh, init_rng_),
      head2_(config.head_hidden, 1, nn::Activation::kLinear, init_rng_) {
  GO_EXPECTS(scaler_.fitted());
  GO_EXPECTS(config_.target_channel < scaler_.num_features());
}

nn::ParamRefs BiLstmForecaster::parameters() {
  nn::ParamRefs params = fwd_cell_.parameters();
  for (auto* p : bwd_cell_.parameters()) params.push_back(p);
  for (auto* p : head1_.parameters()) params.push_back(p);
  for (auto* p : head2_.parameters()) params.push_back(p);
  return params;
}

double BiLstmForecaster::forward_normalized(const nn::Matrix& scaled,
                                            ForwardCache& cache) const {
  fwd_cell_.forward_cached(scaled, cache.fwd);
  const std::size_t last = scaled.rows() - 1;
  nn::Matrix last_row(1, scaled.cols());
  std::copy(scaled.row(last).begin(), scaled.row(last).end(), last_row.row(0).begin());
  bwd_cell_.forward_cached(last_row, cache.bwd);

  // Dense head consumes only the final timestep's concatenated state.
  const auto h_fwd = cache.fwd.hidden.row(last);
  const auto h_bwd = cache.bwd.hidden.row(0);
  nn::Matrix state(1, 2 * config_.hidden);
  std::copy(h_bwd.begin(), h_bwd.end(), std::copy(h_fwd.begin(), h_fwd.end(), state.data()));
  const nn::Matrix h1 = head1_.forward_cached(state, cache.head1);
  const nn::Matrix out = head2_.forward_cached(h1, cache.head2);
  return out(0, 0);
}

double BiLstmForecaster::predict(const nn::Matrix& raw_features) const {
  GO_EXPECTS(raw_features.cols() == scaler_.num_features());
  ForwardCache cache;
  const double normalized = forward_normalized(scaler_.transform(raw_features), cache);
  return scaler_.inverse_transform_value(normalized, config_.target_channel);
}

std::vector<double> BiLstmForecaster::predict_batch(
    std::span<const nn::Matrix* const> raw_windows, nn::Precision precision) const {
  std::vector<double> out(raw_windows.size());
  if (raw_windows.empty()) return out;

  // Scale everything once. Identical raw rows scale to identical rows, so
  // plans computed on the raw windows hold for the scaled ones.
  std::vector<nn::Matrix> scaled;
  scaled.reserve(raw_windows.size());
  for (const nn::Matrix* w : raw_windows) {
    // Same preconditions as predict(): the head reads row T - 1.
    GO_EXPECTS(w->rows() > 0 && w->cols() == scaler_.num_features());
    scaled.push_back(scaler_.transform(*w));
  }

  const std::size_t h = config_.hidden;
  nn::Matrix states(raw_windows.size(), 2 * h);

  for (const ProbeGroup& group : group_probes(raw_windows)) {
    const std::size_t steps = raw_windows[group.indices.front()]->rows();
    const std::vector<ProbeCluster> clusters = cluster_probes(raw_windows, group.indices);

    // Forward cell: resolve each cluster's prefix snapshot from the trail
    // cache, then merge all clusters with EQUAL prefix length into one
    // packed tail batch (run_batch takes per-sequence starts, so one GEMM
    // spans several base windows' probe sets).
    std::vector<nn::Lstm::PrefixState> cluster_starts;
    cluster_starts.reserve(clusters.size());
    for (const ProbeCluster& cluster : clusters) {
      cluster_starts.push_back(
          fwd_prefix_state(scaled[cluster.indices.front()], cluster.plan.shared_prefix));
    }
    std::vector<bool> ran(clusters.size(), false);
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      if (ran[c]) continue;
      const std::size_t prefix = clusters[c].plan.shared_prefix;
      std::vector<const nn::Matrix*> seqs;
      std::vector<const nn::Lstm::PrefixState*> starts;
      std::vector<std::size_t> members;  // original batch index per packed row
      for (std::size_t q = c; q < clusters.size(); ++q) {
        if (ran[q] || clusters[q].plan.shared_prefix != prefix) continue;
        ran[q] = true;
        for (const std::size_t idx : clusters[q].indices) {
          seqs.push_back(&scaled[idx]);
          starts.push_back(&cluster_starts[q]);
          members.push_back(idx);
        }
      }
      const nn::Matrix h_fwd = fwd_cell_.run_batch(seqs, starts, prefix, precision);
      for (std::size_t i = 0; i < members.size(); ++i) {
        std::copy(h_fwd.row(i).begin(), h_fwd.row(i).end(),
                  states.row(members[i]).begin());
      }
    }

    // Backward cell: the scalar path's last aligned output row is the state
    // after the FIRST reversed step, which consumes only the final row —
    // one distinct row per suffix-sharing cluster, all fused into a single
    // first-step batch.
    std::size_t distinct = 0;
    for (const ProbeCluster& cluster : clusters) {
      distinct += cluster.plan.shared_suffix >= 1 ? 1 : cluster.indices.size();
    }
    nn::Matrix last_rows(distinct, scaled.front().cols());
    std::vector<std::pair<std::size_t, std::size_t>> scatter;  // (batch idx, packed row)
    scatter.reserve(group.indices.size());
    std::size_t next_row = 0;
    for (const ProbeCluster& cluster : clusters) {
      if (cluster.plan.shared_suffix >= 1) {
        const auto src = scaled[cluster.indices.front()].row(steps - 1);
        std::copy(src.begin(), src.end(), last_rows.row(next_row).begin());
        for (const std::size_t idx : cluster.indices) scatter.emplace_back(idx, next_row);
        ++next_row;
      } else {
        for (const std::size_t idx : cluster.indices) {
          const auto src = scaled[idx].row(steps - 1);
          std::copy(src.begin(), src.end(), last_rows.row(next_row).begin());
          scatter.emplace_back(idx, next_row);
          ++next_row;
        }
      }
    }
    const nn::Matrix h_bwd = bwd_cell_.first_step_batch(last_rows, precision);
    for (const auto& [idx, row] : scatter) {
      std::copy(h_bwd.row(row).begin(), h_bwd.row(row).end(),
                states.row(idx).begin() + static_cast<std::ptrdiff_t>(h));
    }
  }

  // One dense-head pass over the whole batch (rows are independent, so this
  // is bit-identical to per-group head calls).
  const nn::Matrix h1 = head1_.forward(states);
  const nn::Matrix preds = head2_.forward(h1);
  for (std::size_t i = 0; i < raw_windows.size(); ++i) {
    out[i] = scaler_.inverse_transform_value(preds(i, 0), config_.target_channel);
  }
  return out;
}

nn::Lstm::PrefixState BiLstmForecaster::fwd_prefix_state(const nn::Matrix& scaled,
                                                         std::size_t prefix_rows) const {
  if (prefix_rows == 0) return fwd_cell_.initial_state();
  const std::size_t cols = scaled.cols();

  const auto match_len = [&](const PrefixCache::Entry& entry) {
    const std::size_t limit = std::min<std::size_t>(prefix_rows, entry.rows.rows());
    std::size_t m = 0;
    while (m < limit) {
      const auto a = entry.rows.row(m);
      const auto b = scaled.row(m);
      if (!std::equal(a.begin(), a.end(), b.begin())) break;
      ++m;
    }
    return m;
  };

  std::unique_lock lock(prefix_cache_.mu);
  auto& entries = prefix_cache_.entries;
  // Scan most-recent-first (MRU order, back of the vector) and stop at the
  // first full hit: successive greedy rounds re-query a prefix published
  // within the last few rounds, while stale same-window entries share long
  // prefixes with the query and are expensive to deep-compare for no gain.
  std::size_t best = entries.size();
  std::size_t best_match = 0;
  for (std::size_t e = entries.size(); e-- > 0;) {
    const std::size_t m = match_len(entries[e]);
    if (m > best_match) {
      best_match = m;
      best = e;
      if (best_match == prefix_rows) break;
    }
  }
  // Move a used entry to the MRU back slot; returns its new index.
  const auto touch = [&entries](std::size_t e) {
    if (e + 1 != entries.size()) {
      std::rotate(entries.begin() + static_cast<std::ptrdiff_t>(e),
                  entries.begin() + static_cast<std::ptrdiff_t>(e) + 1, entries.end());
      e = entries.size() - 1;
    }
    return e;
  };
  if (best_match == prefix_rows) {
    return entries[touch(best)].trail[prefix_rows];
  }

  // Partial (or no) hit: copy the matched trail head, advance the remaining
  // rows outside the lock, then publish the longer trail as a new entry.
  std::vector<nn::Lstm::PrefixState> trail;
  trail.reserve(prefix_rows + 1);
  if (best < entries.size()) {
    const auto& src = entries[best].trail;
    trail.assign(src.begin(),
                 src.begin() + static_cast<std::ptrdiff_t>(best_match) + 1);
    touch(best);
  } else {
    trail.push_back(fwd_cell_.initial_state());
  }
  lock.unlock();

  nn::Lstm::PrefixState state = trail.back();
  nn::Matrix rest(prefix_rows - best_match, cols);
  for (std::size_t t = 0; t < rest.rows(); ++t) {
    const auto src = scaled.row(best_match + t);
    std::copy(src.begin(), src.end(), rest.row(t).begin());
  }
  fwd_cell_.advance(state, rest, &trail);

  PrefixCache::Entry entry;
  entry.rows = nn::Matrix(prefix_rows, cols);
  for (std::size_t t = 0; t < prefix_rows; ++t) {
    const auto src = scaled.row(t);
    std::copy(src.begin(), src.end(), entry.rows.row(t).begin());
  }
  entry.trail = std::move(trail);

  lock.lock();
  if (entries.size() >= PrefixCache::kCapacity) {
    entries.erase(entries.begin());  // MRU order: the front is the LRU victim
  }
  entries.push_back(std::move(entry));
  return state;
}

void BiLstmForecaster::invalidate_scoring_state() {
  const std::lock_guard lock(prefix_cache_.mu);
  prefix_cache_.entries.clear();
}

double BiLstmForecaster::train(const std::vector<data::Window>& windows) {
  GO_EXPECTS(!windows.empty());
  GO_EXPECTS(config_.epochs > 0 && config_.batch_size > 0);

  // Pre-scale features and targets once.
  std::vector<nn::Matrix> scaled;
  std::vector<double> targets;
  scaled.reserve(windows.size());
  targets.reserve(windows.size());
  for (const auto& w : windows) {
    scaled.push_back(scaler_.transform(w.features));
    targets.push_back(scaler_.transform_value(w.target_value, config_.target_channel));
  }

  const nn::ParamRefs params = parameters();
  nn::Adam optimizer(config_.learning_rate);
  common::Rng shuffle_rng(config_.seed ^ 0xA5A5A5A5DEADBEEFULL);

  std::vector<std::size_t> order(windows.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  double final_epoch_loss = 0.0;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    shuffle_rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t in_batch = 0;

    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      const std::size_t i = order[pos];
      ForwardCache cache;
      const double pred = forward_normalized(scaled[i], cache);

      const double diff = pred - targets[i];
      epoch_loss += diff * diff;

      // Backpropagate through the forward cell's BPTT and the backward
      // cell's single step; neither needs dLoss/dx.
      nn::Matrix grad_out(1, 1);
      grad_out(0, 0) = 2.0 * diff;  // d(squared error)/d(pred)
      const nn::Matrix g1 = head2_.backward(grad_out, cache.head2);
      const CellGrads grads =
          split_state_grad(head1_.backward(g1, cache.head1), scaled[i].rows());
      fwd_cell_.backward_params(grads.fwd, cache.fwd);
      bwd_cell_.backward_params(grads.bwd, cache.bwd);

      if (++in_batch == config_.batch_size || pos + 1 == order.size()) {
        // Average the accumulated gradients over the batch, clip, step.
        const double inv = 1.0 / static_cast<double>(in_batch);
        for (auto* p : params) p->grad *= inv;
        nn::clip_global_grad_norm(params, config_.grad_clip);
        optimizer.step_and_zero(params);
        in_batch = 0;
      }
    }
    final_epoch_loss = epoch_loss / static_cast<double>(order.size());
  }
  invalidate_scoring_state();
  return final_epoch_loss;
}

double BiLstmForecaster::evaluate_rmse(const std::vector<data::Window>& windows) const {
  GO_EXPECTS(!windows.empty());
  double sum = 0.0;
  for (const auto& w : windows) {
    const double diff = predict(w.features) - w.target_value;
    sum += diff * diff;
  }
  return std::sqrt(sum / static_cast<double>(windows.size()));
}

namespace {
constexpr std::uint32_t kForecasterTag = 0x464F5243;  // "FORC"
}  // namespace

void BiLstmForecaster::save_artifact(std::ostream& out) const {
  nn::write_u32(out, kForecasterTag);
  nn::write_u64(out, config_.hidden);
  nn::write_u64(out, config_.head_hidden);
  nn::write_u64(out, config_.epochs);
  nn::write_u64(out, config_.batch_size);
  nn::write_f64(out, config_.learning_rate);
  nn::write_f64(out, config_.grad_clip);
  nn::write_u64(out, config_.target_channel);
  nn::write_u64(out, config_.seed);
  scaler_.save(out);
  BiLstmForecaster& self = const_cast<BiLstmForecaster&>(*this);
  nn::write_parameters(out, self.parameters());
}

BiLstmForecaster BiLstmForecaster::load_artifact(std::istream& in) {
  nn::expect_u32(in, kForecasterTag, "forecaster tag");
  ForecasterConfig config;
  config.hidden = nn::read_u64(in, "forecaster hidden");
  config.head_hidden = nn::read_u64(in, "forecaster head hidden");
  config.epochs = nn::read_u64(in, "forecaster epochs");
  config.batch_size = nn::read_u64(in, "forecaster batch size");
  config.learning_rate = nn::read_f64(in, "forecaster learning rate");
  config.grad_clip = nn::read_f64(in, "forecaster grad clip");
  config.target_channel = nn::read_u64(in, "forecaster target channel");
  config.seed = nn::read_u64(in, "forecaster seed");
  data::MinMaxScaler scaler;
  scaler.load(in);
  if (!scaler.fitted() || config.hidden == 0 || config.head_hidden == 0 ||
      config.target_channel >= scaler.num_features()) {
    throw common::SerializationError("forecaster artifact carries an invalid config");
  }
  BiLstmForecaster model(config, std::move(scaler));
  nn::read_parameters(in, model.parameters());
  return model;
}

}  // namespace goodones::predict
