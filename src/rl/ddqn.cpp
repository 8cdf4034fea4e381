#include "rl/ddqn.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"
#include "util/error.hpp"

namespace dtmsv::rl {

EpsilonSchedule::EpsilonSchedule(double start, double end, std::size_t decay_steps)
    : start_(start), end_(end), decay_steps_(decay_steps) {
  DTMSV_EXPECTS(start >= 0.0 && start <= 1.0);
  DTMSV_EXPECTS(end >= 0.0 && end <= 1.0);
  DTMSV_EXPECTS(end <= start);
  DTMSV_EXPECTS(decay_steps > 0);
}

double EpsilonSchedule::value(std::size_t step) const {
  if (step >= decay_steps_) {
    return end_;
  }
  const double frac = static_cast<double>(step) / static_cast<double>(decay_steps_);
  return start_ + (end_ - start_) * frac;
}

namespace {

std::unique_ptr<nn::Sequential> build_mlp(const DdqnConfig& config, util::Rng& rng) {
  auto net = std::make_unique<nn::Sequential>();
  std::size_t in = config.state_dim;
  for (const std::size_t h : config.hidden) {
    net->emplace<nn::Linear>(in, h, rng);
    net->emplace<nn::ReLU>();
    in = h;
  }
  net->emplace<nn::Linear>(in, config.action_count, rng);
  return net;
}

}  // namespace

DdqnAgent::DdqnAgent(const DdqnConfig& config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      replay_(config.replay_capacity),
      epsilon_(config.epsilon_start, config.epsilon_end, config.epsilon_decay_steps) {
  DTMSV_EXPECTS_MSG(config.state_dim > 0, "DdqnConfig.state_dim must be set");
  DTMSV_EXPECTS_MSG(config.action_count > 0, "DdqnConfig.action_count must be set");
  DTMSV_EXPECTS(config.gamma >= 0.0 && config.gamma < 1.0);
  DTMSV_EXPECTS(config.batch_size > 0);
  DTMSV_EXPECTS(!config.hidden.empty());

  online_ = build_mlp(config_, rng_);
  target_ = build_mlp(config_, rng_);
  nn::copy_parameters(*online_, *target_);
  optimizer_ = std::make_unique<nn::Adam>(online_->parameters(), config_.learning_rate);
  single_state_ = nn::Tensor({1, config_.state_dim});
}

double DdqnAgent::current_epsilon() const { return epsilon_.value(action_steps_); }

std::vector<float> DdqnAgent::q_values(std::span<const float> state) {
  DTMSV_EXPECTS(state.size() == config_.state_dim);
  std::copy(state.begin(), state.end(), single_state_.data().begin());
  const nn::Tensor& out = online_->forward(single_state_);
  return {out.data().begin(), out.data().end()};
}

std::size_t DdqnAgent::greedy_action(std::span<const float> state) {
  DTMSV_EXPECTS(state.size() == config_.state_dim);
  // Scans the forward output in place (no q-vector materialised); first
  // maximum wins, like std::max_element over q_values would.
  std::copy(state.begin(), state.end(), single_state_.data().begin());
  const std::span<const float> q = online_->forward(single_state_).data();
  std::size_t best = 0;
  for (std::size_t a = 1; a < config_.action_count; ++a) {
    if (q[a] > q[best]) {
      best = a;
    }
  }
  return best;
}

std::size_t DdqnAgent::act(std::span<const float> state, bool explore) {
  // Only exploring calls consume the exploration budget: evaluation
  // rollouts (explore=false) must not decay the epsilon schedule.
  if (explore) {
    const double eps = epsilon_.value(action_steps_);
    ++action_steps_;
    if (rng_.bernoulli(eps)) {
      return static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(config_.action_count) - 1));
    }
  }
  return greedy_action(state);
}

void DdqnAgent::observe(Transition t) {
  DTMSV_EXPECTS(t.state.size() == config_.state_dim);
  DTMSV_EXPECTS(t.next_state.size() == config_.state_dim);
  DTMSV_EXPECTS(t.action < config_.action_count);
  replay_.push(std::move(t));
}

nn::Tensor DdqnAgent::batch_states(const std::vector<const Transition*>& batch,
                                   bool next) const {
  nn::Tensor out({batch.size(), config_.state_dim});
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& src = next ? batch[i]->next_state : batch[i]->state;
    for (std::size_t j = 0; j < config_.state_dim; ++j) {
      out.at2(i, j) = src[j];
    }
  }
  return out;
}

std::optional<float> DdqnAgent::train_step() {
  if (replay_.size() < std::max(config_.min_replay_before_train, config_.batch_size)) {
    return std::nullopt;
  }
  const auto batch = replay_.sample(config_.batch_size, rng_);
  const std::size_t n = batch.size();

  // Double-Q target: a* from the online net, value from the target net.
  // Both are the networks' own output buffers; q_next_online is read only
  // here, before the online net's second forward below overwrites it.
  const nn::Tensor next_states = batch_states(batch, /*next=*/true);
  const nn::Tensor& q_next_online = online_->forward(next_states);
  const nn::Tensor& q_next_target = target_->forward(next_states);

  std::vector<float> targets(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t best = 0;
    float best_q = q_next_online.at2(i, 0);
    for (std::size_t a = 1; a < config_.action_count; ++a) {
      if (q_next_online.at2(i, a) > best_q) {
        best_q = q_next_online.at2(i, a);
        best = a;
      }
    }
    float y = batch[i]->reward;
    if (!batch[i]->done) {
      y += static_cast<float>(config_.gamma) * q_next_target.at2(i, best);
    }
    targets[i] = y;
  }

  // Current Q-values; train only the taken action via masking.
  const nn::Tensor states = batch_states(batch, /*next=*/false);
  const nn::Tensor& q = online_->forward(states);

  nn::Tensor target_tensor = q;
  nn::Tensor mask({n, config_.action_count});
  for (std::size_t i = 0; i < n; ++i) {
    target_tensor.at2(i, batch[i]->action) = targets[i];
    mask.at2(i, batch[i]->action) = 1.0f;
  }

  const auto loss = nn::masked_huber_loss(q, target_tensor, mask);
  optimizer_->zero_grad();
  online_->backward_params(loss.grad);
  // Non-finite gradients (a NaN/inf state or reward) would poison every
  // weight and both Adam moments: skip the update, keep the model.
  if (std::isfinite(optimizer_->clip_grad_norm(config_.grad_clip_norm))) {
    optimizer_->step();
  }

  ++train_steps_;
  if (train_steps_ % config_.target_sync_every == 0) {
    nn::copy_parameters(*online_, *target_);
  }
  return loss.value;
}

}  // namespace dtmsv::rl
