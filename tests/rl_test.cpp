// Unit tests for dtmsv::rl — replay-buffer semantics, epsilon schedule, and
// DDQN learning on a tiny bandit/chain environment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "rl/ddqn.hpp"
#include "rl/replay_buffer.hpp"
#include "util/error.hpp"

namespace {

using namespace dtmsv::rl;
using dtmsv::util::PreconditionError;
using dtmsv::util::Rng;

Transition make_transition(float marker, std::size_t action = 0) {
  Transition t;
  t.state = {marker, 0.0f};
  t.action = action;
  t.reward = marker;
  t.next_state = {marker + 0.5f, 0.0f};
  t.done = false;
  return t;
}

// ------------------------------------------------------------ ReplayBuffer

TEST(ReplayBuffer, StartsEmpty) {
  ReplayBuffer buf(4);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.capacity(), 4u);
}

TEST(ReplayBuffer, ZeroCapacityRejected) {
  EXPECT_THROW(ReplayBuffer(0), PreconditionError);
}

TEST(ReplayBuffer, FillsThenEvictsOldest) {
  ReplayBuffer buf(3);
  for (int i = 0; i < 3; ++i) {
    buf.push(make_transition(static_cast<float>(i)));
  }
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_FLOAT_EQ(buf.at(0).reward, 0.0f);

  buf.push(make_transition(3.0f));  // evicts 0
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_FLOAT_EQ(buf.at(0).reward, 1.0f);
  EXPECT_FLOAT_EQ(buf.at(2).reward, 3.0f);
}

TEST(ReplayBuffer, AgeOrderStableAcrossWraparound) {
  ReplayBuffer buf(4);
  for (int i = 0; i < 10; ++i) {
    buf.push(make_transition(static_cast<float>(i)));
  }
  // Retained: 6, 7, 8, 9 (oldest first).
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(buf.at(i).reward, static_cast<float>(6 + i));
  }
}

TEST(ReplayBuffer, SampleOnlyReturnsStored) {
  ReplayBuffer buf(8);
  for (int i = 0; i < 5; ++i) {
    buf.push(make_transition(static_cast<float>(i)));
  }
  Rng rng(1);
  const auto batch = buf.sample(64, rng);
  ASSERT_EQ(batch.size(), 64u);
  for (const auto* t : batch) {
    EXPECT_GE(t->reward, 0.0f);
    EXPECT_LE(t->reward, 4.0f);
  }
}

TEST(ReplayBuffer, SampleEmptyRejected) {
  ReplayBuffer buf(2);
  Rng rng(1);
  EXPECT_THROW(buf.sample(1, rng), PreconditionError);
}

TEST(ReplayBuffer, ClearResets) {
  ReplayBuffer buf(2);
  buf.push(make_transition(1.0f));
  buf.clear();
  EXPECT_TRUE(buf.empty());
  buf.push(make_transition(2.0f));
  EXPECT_FLOAT_EQ(buf.at(0).reward, 2.0f);
}

TEST(ReplayBuffer, OutOfRangeAtRejected) {
  ReplayBuffer buf(2);
  buf.push(make_transition(1.0f));
  EXPECT_THROW(buf.at(1), PreconditionError);
}

// -------------------------------------------------------- EpsilonSchedule

TEST(EpsilonSchedule, LinearDecayEndpoints) {
  EpsilonSchedule sched(1.0, 0.1, 100);
  EXPECT_DOUBLE_EQ(sched.value(0), 1.0);
  EXPECT_NEAR(sched.value(50), 0.55, 1e-12);
  EXPECT_DOUBLE_EQ(sched.value(100), 0.1);
  EXPECT_DOUBLE_EQ(sched.value(10000), 0.1);
}

TEST(EpsilonSchedule, RejectsRisingSchedule) {
  EXPECT_THROW(EpsilonSchedule(0.1, 0.5, 10), PreconditionError);
}

// -------------------------------------------------------------- DdqnAgent

DdqnConfig small_config(std::size_t state_dim = 2, std::size_t actions = 3) {
  DdqnConfig cfg;
  cfg.state_dim = state_dim;
  cfg.action_count = actions;
  cfg.hidden = {16};
  cfg.batch_size = 16;
  cfg.replay_capacity = 512;
  cfg.min_replay_before_train = 32;
  cfg.target_sync_every = 20;
  cfg.epsilon_start = 1.0;
  cfg.epsilon_end = 0.05;
  cfg.epsilon_decay_steps = 200;
  return cfg;
}

TEST(DdqnAgent, ConfigValidation) {
  DdqnConfig cfg = small_config();
  cfg.state_dim = 0;
  EXPECT_THROW(DdqnAgent(cfg, 1), PreconditionError);
  cfg = small_config();
  cfg.action_count = 0;
  EXPECT_THROW(DdqnAgent(cfg, 1), PreconditionError);
  cfg = small_config();
  cfg.gamma = 1.0;
  EXPECT_THROW(DdqnAgent(cfg, 1), PreconditionError);
}

TEST(DdqnAgent, QValuesShape) {
  DdqnAgent agent(small_config(), 7);
  const std::vector<float> state = {0.5f, -0.5f};
  const auto q = agent.q_values(state);
  EXPECT_EQ(q.size(), 3u);
}

TEST(DdqnAgent, GreedyMatchesArgmax) {
  DdqnAgent agent(small_config(), 8);
  const std::vector<float> state = {0.2f, 0.8f};
  const auto q = agent.q_values(state);
  const auto argmax = static_cast<std::size_t>(
      std::distance(q.begin(), std::max_element(q.begin(), q.end())));
  EXPECT_EQ(agent.greedy_action(state), argmax);
}

TEST(DdqnAgent, EpsilonDecaysWithActions) {
  DdqnAgent agent(small_config(), 9);
  const double eps0 = agent.current_epsilon();
  const std::vector<float> state = {0.0f, 0.0f};
  for (int i = 0; i < 100; ++i) {
    agent.act(state);
  }
  EXPECT_LT(agent.current_epsilon(), eps0);
  EXPECT_EQ(agent.action_steps(), 100u);
}

TEST(DdqnAgent, EvalActionsLeaveEpsilonScheduleUntouched) {
  // Regression: act(explore=false) used to advance the schedule, so
  // evaluation rollouts silently consumed the exploration budget.
  DdqnAgent agent(small_config(), 29);
  const double eps0 = agent.current_epsilon();
  const std::vector<float> state = {0.3f, -0.7f};
  for (int i = 0; i < 50; ++i) {
    agent.act(state, /*explore=*/false);
  }
  EXPECT_EQ(agent.action_steps(), 0u);
  EXPECT_DOUBLE_EQ(agent.current_epsilon(), eps0);
  // Exploring calls still decay it.
  for (int i = 0; i < 10; ++i) {
    agent.act(state, /*explore=*/true);
  }
  EXPECT_EQ(agent.action_steps(), 10u);
  EXPECT_LT(agent.current_epsilon(), eps0);
}

TEST(DdqnAgent, NoTrainingBeforeMinReplay) {
  DdqnAgent agent(small_config(), 10);
  agent.observe(make_transition(0.1f));
  EXPECT_FALSE(agent.train_step().has_value());
  EXPECT_EQ(agent.train_steps(), 0u);
}

TEST(DdqnAgent, ObserveValidatesShapes) {
  DdqnAgent agent(small_config(), 11);
  Transition t;
  t.state = {0.0f};  // wrong dim
  t.next_state = {0.0f, 0.0f};
  EXPECT_THROW(agent.observe(t), PreconditionError);
  Transition t2 = make_transition(0.0f, /*action=*/99);
  EXPECT_THROW(agent.observe(t2), PreconditionError);
}

TEST(DdqnAgent, DeterministicAcrossSeeds) {
  DdqnAgent a(small_config(), 42);
  DdqnAgent b(small_config(), 42);
  const std::vector<float> state = {0.3f, 0.7f};
  const auto qa = a.q_values(state);
  const auto qb = b.q_values(state);
  for (std::size_t i = 0; i < qa.size(); ++i) {
    EXPECT_FLOAT_EQ(qa[i], qb[i]);
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.act(state), b.act(state));
  }
}

TEST(DdqnAgent, NonFiniteTransitionDoesNotPoisonNetwork) {
  // One NaN transition (state, next state and reward) in the replay makes
  // the batches that sample it produce a NaN gradient norm; those updates
  // are skipped, the rest train on.
  DdqnAgent agent(small_config(), 17);
  Rng rng(17);
  for (int i = 0; i < 64; ++i) {
    const float r = i == 10 ? std::nanf("") : static_cast<float>(rng.uniform());
    agent.observe(make_transition(r, static_cast<std::size_t>(i) % 3));
  }
  for (int i = 0; i < 30; ++i) {
    agent.train_step();
  }
  EXPECT_EQ(agent.train_steps(), 30u);
  for (const auto& p : agent.online_network().parameters()) {
    for (const float v : p.value->data()) {
      ASSERT_TRUE(std::isfinite(v)) << p.name;
    }
  }
  for (const float q : agent.q_values(std::vector<float>{0.4f, -0.2f})) {
    EXPECT_TRUE(std::isfinite(q));
  }
}

// A 2-armed bandit with state-dependent best arm: state (1,0) -> arm 0 pays
// 1, arm 1 pays 0; state (0,1) reversed. DDQN must learn the mapping.
TEST(DdqnAgent, LearnsContextualBandit) {
  DdqnConfig cfg = small_config(2, 2);
  cfg.gamma = 0.0;  // bandit: no bootstrapping
  cfg.learning_rate = 5e-3;
  cfg.epsilon_decay_steps = 400;
  DdqnAgent agent(cfg, 123);
  Rng env_rng(321);

  for (int episode = 0; episode < 600; ++episode) {
    const bool flip = env_rng.bernoulli(0.5);
    const std::vector<float> state = flip ? std::vector<float>{0.0f, 1.0f}
                                          : std::vector<float>{1.0f, 0.0f};
    const std::size_t action = agent.act(state);
    const std::size_t best = flip ? 1u : 0u;
    const float reward = action == best ? 1.0f : 0.0f;
    agent.observe({state, action, reward, state, true});
    agent.train_step();
  }

  EXPECT_EQ(agent.greedy_action(std::vector<float>{1.0f, 0.0f}), 0u);
  EXPECT_EQ(agent.greedy_action(std::vector<float>{0.0f, 1.0f}), 1u);
  EXPECT_GT(agent.train_steps(), 0u);
}

// Two-state chain: from s0, action 1 reaches s1 (reward 0), where action 1
// pays 10 and terminates. With gamma high enough the agent must prefer
// action 1 in s0 even though its immediate reward is 0.
TEST(DdqnAgent, PropagatesValueThroughBootstrap) {
  DdqnConfig cfg = small_config(2, 2);
  cfg.gamma = 0.9;
  cfg.learning_rate = 5e-3;
  cfg.epsilon_decay_steps = 300;
  cfg.target_sync_every = 25;
  DdqnAgent agent(cfg, 77);

  const std::vector<float> s0 = {1.0f, 0.0f};
  const std::vector<float> s1 = {0.0f, 1.0f};
  for (int episode = 0; episode < 500; ++episode) {
    // In s0: action 0 terminates with tiny reward; action 1 moves to s1.
    const std::size_t a0 = agent.act(s0);
    if (a0 == 0) {
      agent.observe({s0, 0, 0.5f, s0, true});
    } else {
      agent.observe({s0, 1, 0.0f, s1, false});
      const std::size_t a1 = agent.act(s1);
      const float r1 = a1 == 1 ? 10.0f : 0.0f;
      agent.observe({s1, a1, r1, s1, true});
    }
    agent.train_step();
    agent.train_step();
  }

  EXPECT_EQ(agent.greedy_action(s1), 1u);
  EXPECT_EQ(agent.greedy_action(s0), 1u) << "agent failed to bootstrap future value";
}

TEST(DdqnAgent, TargetSyncHappens) {
  DdqnConfig cfg = small_config();
  cfg.min_replay_before_train = 16;
  cfg.batch_size = 8;
  cfg.target_sync_every = 5;
  DdqnAgent agent(cfg, 5);
  for (int i = 0; i < 32; ++i) {
    agent.observe(make_transition(static_cast<float>(i) * 0.01f, i % 3));
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(agent.train_step().has_value());
  }
  // After a sync the target and online nets agree on Q-values.
  // (train_steps == 10, last sync at step 10.)
  const std::vector<float> probe = {0.4f, 0.6f};
  dtmsv::nn::Tensor input({1, 2});
  input[0] = probe[0];
  input[1] = probe[1];
  const auto q_online = agent.online_network().forward(input);
  const auto q_target = agent.target_network().forward(input);
  for (std::size_t i = 0; i < q_online.size(); ++i) {
    EXPECT_FLOAT_EQ(q_online[i], q_target[i]);
  }
}

}  // namespace
