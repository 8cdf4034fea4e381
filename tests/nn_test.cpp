// Unit tests for dtmsv::nn — tensor algebra, every layer's forward values
// and gradient-checked backward pass, losses, optimisers (including a full
// training convergence test), and parameter serialisation.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>

#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/gradient_check.hpp"
#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"
#include "nn/tensor.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using namespace dtmsv::nn;
using dtmsv::util::PreconditionError;
using dtmsv::util::Rng;
using dtmsv::util::RuntimeError;

Tensor random_tensor(Shape shape, Rng& rng, double scale = 1.0) {
  Tensor t(std::move(shape));
  for (float& v : t.data()) {
    v = static_cast<float>(rng.normal(0.0, scale));
  }
  return t;
}

// Loss used in gradient checks: 0.5 * sum(y^2) with gradient y.
float half_sq_loss(const Tensor& y) {
  float total = 0.0f;
  for (const float v : y.data()) {
    total += 0.5f * v * v;
  }
  return total;
}
Tensor half_sq_grad(const Tensor& y) { return y; }

// ------------------------------------------------------------------ Tensor

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.dim(1), 3u);
  EXPECT_EQ(t.shape_string(), "[2, 3, 4]");
  for (const float v : t.data()) {
    EXPECT_EQ(v, 0.0f);
  }
}

TEST(Tensor, ZeroDimensionRejected) {
  EXPECT_THROW(Tensor({2, 0, 3}), PreconditionError);
}

TEST(Tensor, ValueCountMismatchRejected) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f, 3.0f}), PreconditionError);
}

TEST(Tensor, FromRows) {
  const Tensor t = Tensor::from_rows({{1.0f, 2.0f}, {3.0f, 4.0f}});
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(1), 2u);
  EXPECT_EQ(t.at2(1, 0), 3.0f);
}

TEST(Tensor, RaggedRowsRejected) {
  EXPECT_THROW(Tensor::from_rows({{1.0f, 2.0f}, {3.0f}}), PreconditionError);
}

TEST(Tensor, ElementAccess3D) {
  Tensor t({2, 3, 4});
  t.at3(1, 2, 3) = 7.0f;
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 7.0f);
  EXPECT_THROW(t.at3(2, 0, 0), PreconditionError);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at2(2, 1), 6.0f);
  EXPECT_THROW(t.reshaped({4, 2}), PreconditionError);
}

TEST(Tensor, ElementwiseOps) {
  Tensor a({2}, {1.0f, 2.0f});
  const Tensor b({2}, {3.0f, 4.0f});
  a += b;
  EXPECT_EQ(a[0], 4.0f);
  a -= b;
  EXPECT_EQ(a[1], 2.0f);
  a *= 3.0f;
  EXPECT_EQ(a[0], 3.0f);
}

TEST(Tensor, ShapeMismatchInPlusRejected) {
  Tensor a({2});
  const Tensor b({3});
  EXPECT_THROW(a += b, PreconditionError);
}

TEST(Tensor, Reductions) {
  const Tensor t({4}, {1.0f, -5.0f, 2.0f, 2.0f});
  EXPECT_EQ(t.sum(), 0.0f);
  EXPECT_EQ(t.mean(), 0.0f);
  EXPECT_EQ(t.abs_max(), 5.0f);
}

TEST(Tensor, MatmulKnownValues) {
  const Tensor a = Tensor::from_rows({{1, 2}, {3, 4}});
  const Tensor b = Tensor::from_rows({{5, 6}, {7, 8}});
  const Tensor c = Tensor::matmul(a, b);
  EXPECT_EQ(c.at2(0, 0), 19.0f);
  EXPECT_EQ(c.at2(0, 1), 22.0f);
  EXPECT_EQ(c.at2(1, 0), 43.0f);
  EXPECT_EQ(c.at2(1, 1), 50.0f);
}

TEST(Tensor, MatmulTransposedVariantsAgree) {
  Rng rng(1);
  const Tensor a = random_tensor({3, 4}, rng);
  const Tensor b = random_tensor({4, 5}, rng);
  const Tensor expected = Tensor::matmul(a, b);

  // matmul_bt(a, bT) == a·b
  Tensor bt({5, 4});
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      bt.at2(j, i) = b.at2(i, j);
    }
  }
  const Tensor via_bt = Tensor::matmul_bt(a, bt);
  ASSERT_TRUE(same_shape(via_bt, expected));
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(via_bt[i], expected[i], 1e-4);
  }

  // matmul_at(aT, b) == a·b
  Tensor at({4, 3});
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      at.at2(j, i) = a.at2(i, j);
    }
  }
  const Tensor via_at = Tensor::matmul_at(at, b);
  ASSERT_TRUE(same_shape(via_at, expected));
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(via_at[i], expected[i], 1e-4);
  }
}

TEST(Tensor, MatmulInnerDimMismatchRejected) {
  const Tensor a({2, 3});
  const Tensor b({4, 2});
  EXPECT_THROW(Tensor::matmul(a, b), PreconditionError);
}

// -------------------------------------------------------------------- Init

TEST(Init, XavierWithinBound) {
  Rng rng(2);
  Tensor w({64, 32});
  xavier_uniform(w, 32, 64, rng);
  const double bound = std::sqrt(6.0 / (32 + 64));
  for (const float v : w.data()) {
    EXPECT_LE(std::abs(v), bound + 1e-6);
  }
  EXPECT_GT(w.abs_max(), 0.0f);
}

// ------------------------------------------------------------------ Linear

TEST(Linear, ForwardKnownValues) {
  Rng rng(4);
  Linear layer(2, 2, rng);
  layer.weights() = Tensor::from_rows({{1, 2}, {3, 4}});
  layer.bias() = Tensor({2}, {0.5f, -0.5f});
  const Tensor x = Tensor::from_rows({{1, 1}});
  const Tensor y = layer.forward(x);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 3.5f);   // 1+2+0.5
  EXPECT_FLOAT_EQ(y.at2(0, 1), 6.5f);   // 3+4-0.5
}

TEST(Linear, GradientCheck) {
  Rng rng(5);
  Linear layer(4, 3, rng);
  const Tensor x = random_tensor({5, 4}, rng);
  const auto result = check_gradients(layer, x, half_sq_loss, half_sq_grad);
  EXPECT_TRUE(result.ok()) << "param err " << result.max_param_error << " input err "
                           << result.max_input_error;
}

TEST(Linear, BackwardBeforeForwardRejected) {
  Rng rng(6);
  Linear layer(2, 2, rng);
  EXPECT_THROW(layer.backward(Tensor({1, 2})), PreconditionError);
}

TEST(Linear, GradAccumulatesAcrossBackward) {
  Rng rng(7);
  Linear layer(2, 2, rng);
  const Tensor x = random_tensor({3, 2}, rng);
  const Tensor g = random_tensor({3, 2}, rng);
  layer.forward(x);
  layer.backward(g);
  const auto params = layer.parameters();
  const float first = (*params[0].grad)[0];
  layer.forward(x);
  layer.backward(g);
  EXPECT_NEAR((*params[0].grad)[0], 2.0f * first, 1e-4);
  layer.zero_grad();
  EXPECT_EQ((*params[0].grad)[0], 0.0f);
}

// ------------------------------------------------------------------ Conv1D

TEST(Conv1D, OutputLengthFormula) {
  Rng rng(8);
  Conv1D conv(1, 1, 3, rng, /*stride=*/1, /*padding=*/1);
  EXPECT_EQ(conv.output_length(8), 8u);
  Conv1D strided(1, 1, 3, rng, /*stride=*/2, /*padding=*/0);
  EXPECT_EQ(strided.output_length(9), 4u);
  EXPECT_THROW(strided.output_length(2), PreconditionError);
}

TEST(Conv1D, ForwardIdentityKernel) {
  Rng rng(9);
  Conv1D conv(1, 1, 1, rng);
  conv.weights().fill(1.0f);
  conv.bias().fill(0.0f);
  const Tensor x({1, 1, 4}, {1, 2, 3, 4});
  const Tensor y = conv.forward(x);
  ASSERT_EQ(y.dim(2), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(y.at3(0, 0, i), x.at3(0, 0, i));
  }
}

TEST(Conv1D, ForwardMovingSum) {
  Rng rng(10);
  Conv1D conv(1, 1, 3, rng, 1, 0);
  conv.weights().fill(1.0f);
  conv.bias().fill(0.0f);
  const Tensor x({1, 1, 5}, {1, 2, 3, 4, 5});
  const Tensor y = conv.forward(x);
  ASSERT_EQ(y.dim(2), 3u);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 0), 6.0f);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 1), 9.0f);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 2), 12.0f);
}

TEST(Conv1D, PaddingZeros) {
  Rng rng(11);
  Conv1D conv(1, 1, 3, rng, 1, 1);
  conv.weights().fill(1.0f);
  conv.bias().fill(0.0f);
  const Tensor x({1, 1, 3}, {1, 2, 3});
  const Tensor y = conv.forward(x);
  ASSERT_EQ(y.dim(2), 3u);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 0), 3.0f);  // 0+1+2
  EXPECT_FLOAT_EQ(y.at3(0, 0, 2), 5.0f);  // 2+3+0
}

TEST(Conv1D, GradientCheckNoPadding) {
  Rng rng(12);
  Conv1D conv(2, 3, 3, rng, 1, 0);
  const Tensor x = random_tensor({2, 2, 8}, rng);
  const auto result = check_gradients(conv, x, half_sq_loss, half_sq_grad);
  EXPECT_TRUE(result.ok()) << result.max_param_error << " / " << result.max_input_error;
}

TEST(Conv1D, GradientCheckStridedPadded) {
  Rng rng(13);
  Conv1D conv(2, 2, 3, rng, 2, 1);
  const Tensor x = random_tensor({2, 2, 7}, rng);
  // Slightly looser tolerance: float32 central differences on a strided,
  // padded conv accumulate more rounding error than the dense case.
  const auto result = check_gradients(conv, x, half_sq_loss, half_sq_grad);
  EXPECT_TRUE(result.ok(2e-2)) << result.max_param_error << " / "
                               << result.max_input_error;
}

// Forward output and all three gradients of one Conv1D pass.
struct ConvPass {
  Tensor out, grad_input, grad_w, grad_b;
};

ConvPass run_conv(Conv1D& conv, const Tensor& x, const Tensor& g) {
  conv.zero_grad();
  ConvPass pass;
  pass.out = conv.forward(x);
  pass.grad_input = conv.backward(g);
  const auto params = conv.parameters();
  pass.grad_w = *params[0].grad;
  pass.grad_b = *params[1].grad;
  return pass;
}

/// Direct convolution and its gradients, accumulated in the order the
/// layer promises: each output is the madd chain over (channel, tap)
/// ascending, padding taps included as zeros, plus the bias; each weight
/// gradient is one chain over (sample, position) ascending; each
/// input-gradient element adds, in ascending output position t, the madd
/// chain over f of every tap that reads it.
ConvPass naive_conv(const Conv1D& conv, const Tensor& w, const Tensor& bias,
                    const Tensor& x, const Tensor& g) {
  const std::size_t n = x.dim(0), cin = conv.in_channels(), len = x.dim(2);
  const std::size_t fch = conv.out_channels(), kern = conv.kernel();
  const std::size_t stride = conv.stride(), pad = conv.padding();
  const std::size_t out_len = conv.output_length(len);
  // Input value under tap k at output position t (zero in the padding).
  const auto tap = [&](std::size_t t, std::size_t k, std::size_t& pos) {
    const std::size_t p = t * stride + k;
    if (p < pad || p - pad >= len) {
      return false;
    }
    pos = p - pad;
    return true;
  };
  ConvPass ref{Tensor({n, fch, out_len}), Tensor(x.shape()), Tensor(w.shape()),
               Tensor(bias.shape())};
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t f = 0; f < fch; ++f) {
      for (std::size_t t = 0; t < out_len; ++t) {
        float acc = 0.0f;
        for (std::size_t c = 0; c < cin; ++c) {
          for (std::size_t k = 0; k < kern; ++k) {
            std::size_t pos = 0;
            const float xv = tap(t, k, pos) ? x.at3(b, c, pos) : 0.0f;
            acc = fused_madd(w.at3(f, c, k), xv, acc);
          }
        }
        ref.out.at3(b, f, t) = acc + bias[f];
      }
    }
  }
  for (std::size_t f = 0; f < fch; ++f) {
    for (std::size_t c = 0; c < cin; ++c) {
      for (std::size_t k = 0; k < kern; ++k) {
        float acc = 0.0f;
        for (std::size_t b = 0; b < n; ++b) {
          for (std::size_t t = 0; t < out_len; ++t) {
            std::size_t pos = 0;
            const float xv = tap(t, k, pos) ? x.at3(b, c, pos) : 0.0f;
            acc = fused_madd(g.at3(b, f, t), xv, acc);
          }
        }
        ref.grad_w.at3(f, c, k) += acc;
      }
    }
    for (std::size_t b = 0; b < n; ++b) {
      float acc = 0.0f;
      for (std::size_t t = 0; t < out_len; ++t) {
        acc += g.at3(b, f, t);
      }
      ref.grad_b[f] += acc;
    }
  }
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t t = 0; t < out_len; ++t) {
      for (std::size_t c = 0; c < cin; ++c) {
        for (std::size_t k = 0; k < kern; ++k) {
          std::size_t pos = 0;
          if (!tap(t, k, pos)) {
            continue;
          }
          float acc = 0.0f;
          for (std::size_t f = 0; f < fch; ++f) {
            acc = fused_madd(g.at3(b, f, t), w.at3(f, c, k), acc);
          }
          ref.grad_input.at3(b, c, pos) += acc;
        }
      }
    }
  }
  return ref;
}

void expect_same_bits(const Tensor& got, const Tensor& want, const char* what,
                      std::size_t batch) {
  ASSERT_EQ(got.shape(), want.shape()) << what << " at batch " << batch;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]), std::bit_cast<std::uint32_t>(want[i]))
        << what << " element " << i << " at batch " << batch << ": " << got[i]
        << " vs " << want[i];
  }
}

TEST(Conv1D, ReusedScratchMatchesFreshLayerAndDirectReference) {
  // One layer instance runs the compressor's batch sequence: a 32-user
  // training batch, the 16-user tail batch of 240 users, then the
  // 240-user embed. Scratch left over from a larger or smaller call must
  // never leak into the next one: every pass must be bit-equal to a fresh
  // layer with the same weights and to the direct convolution. The
  // compressor's two layer shapes plus a strided one are covered.
  struct Geometry {
    std::size_t cin, fch, kern, stride, pad, len;
  };
  for (const Geometry geo : {Geometry{11, 16, 5, 1, 2, 32}, Geometry{16, 32, 3, 1, 1, 16},
                             Geometry{3, 5, 4, 2, 3, 13}}) {
    Rng init(21);
    Conv1D reused(geo.cin, geo.fch, geo.kern, init, geo.stride, geo.pad);
    Rng bias_rng(22);
    for (float& v : reused.bias().data()) {
      v = static_cast<float>(bias_rng.normal(0.0, 0.5));
    }
    Rng data_rng(23);
    for (const std::size_t batch : {32u, 16u, 240u}) {
      const Tensor x = random_tensor({batch, geo.cin, geo.len}, data_rng);
      const Tensor g = random_tensor({batch, geo.fch, reused.output_length(geo.len)},
                                     data_rng);
      const ConvPass got = run_conv(reused, x, g);

      Rng fresh_init(21);
      Conv1D fresh(geo.cin, geo.fch, geo.kern, fresh_init, geo.stride, geo.pad);
      fresh.bias() = reused.bias();
      const ConvPass want = run_conv(fresh, x, g);
      const ConvPass ref = naive_conv(reused, reused.weights(), reused.bias(), x, g);
      for (const ConvPass* other : {&want, &ref}) {
        expect_same_bits(got.out, other->out, "output", batch);
        expect_same_bits(got.grad_input, other->grad_input, "input grad", batch);
        expect_same_bits(got.grad_w, other->grad_w, "weight grad", batch);
        expect_same_bits(got.grad_b, other->grad_b, "bias grad", batch);
      }
    }
  }
}

// --------------------------------------------------------- backward_params

/// Parameter gradients after one forward and one backward() — or, with
/// `params_only`, backward_params() — of `g` at `x`, from zeroed gradients.
std::vector<Tensor> param_grads(Layer& layer, const Tensor& x, const Tensor& g,
                                bool params_only) {
  layer.zero_grad();
  layer.forward(x);
  if (params_only) {
    layer.backward_params(g);
  } else {
    layer.backward(g);
  }
  std::vector<Tensor> grads;
  for (const auto& p : layer.parameters()) {
    grads.push_back(*p.grad);
  }
  return grads;
}

void expect_params_only_matches_backward(Layer& layer, const Tensor& x, const Tensor& g) {
  const auto full = param_grads(layer, x, g, false);
  const auto params_only = param_grads(layer, x, g, true);
  ASSERT_EQ(full.size(), params_only.size());
  ASSERT_FALSE(full.empty());
  for (std::size_t i = 0; i < full.size(); ++i) {
    expect_same_bits(params_only[i], full[i], layer.parameters()[i].name.c_str(), i);
  }
}

TEST(BackwardParams, Conv1DMatchesBackward) {
  for (const std::size_t stride : {1u, 2u}) {
    for (const std::size_t pad : {0u, 2u}) {
      Rng rng(30 + stride * 3 + pad);
      Conv1D conv(3, 5, 3, rng, stride, pad);
      for (float& v : conv.bias().data()) {
        v = static_cast<float>(rng.normal(0.0, 0.5));
      }
      const Tensor x = random_tensor({4, 3, 11}, rng);
      const Tensor g = random_tensor({4, 5, conv.output_length(11)}, rng);
      SCOPED_TRACE(testing::Message() << "stride " << stride << " padding " << pad);
      expect_params_only_matches_backward(conv, x, g);
    }
  }
}

TEST(BackwardParams, LinearMatchesBackward) {
  Rng rng(35);
  Linear lin(7, 5, rng);
  const Tensor x = random_tensor({6, 7}, rng);
  const Tensor g = random_tensor({6, 5}, rng);
  expect_params_only_matches_backward(lin, x, g);
}

TEST(BackwardParams, SequentialMatchesBackward) {
  // The compressor's encoder shape, plus an MLP whose first layer has no
  // parameters (Layer's default backward_params).
  Rng rng(36);
  Sequential encoder;
  encoder.emplace<Conv1D>(11, 16, 5, rng, 1, 2);
  encoder.emplace<ReLU>();
  encoder.emplace<MaxPool1D>(2);
  encoder.emplace<Conv1D>(16, 32, 3, rng, 1, 1);
  encoder.emplace<ReLU>();
  encoder.emplace<GlobalAvgPool1D>();
  encoder.emplace<Linear>(32, 8, rng);
  expect_params_only_matches_backward(encoder, random_tensor({8, 11, 16}, rng),
                                      random_tensor({8, 8}, rng));

  Sequential mlp;
  mlp.emplace<ReLU>();
  mlp.emplace<Linear>(4, 6, rng);
  mlp.emplace<ReLU>();
  mlp.emplace<Linear>(6, 3, rng);
  expect_params_only_matches_backward(mlp, random_tensor({5, 4}, rng),
                                      random_tensor({5, 3}, rng));
}

// ------------------------------------------------------------- Activations

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  const Tensor x({4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  const Tensor y = relu.forward(x);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  EXPECT_EQ(y[3], 0.0f);
}

TEST(ReLU, BackwardMasksGradient) {
  ReLU relu;
  const Tensor x({3}, {-1.0f, 1.0f, 2.0f});
  relu.forward(x);
  const Tensor g({3}, {5.0f, 5.0f, 5.0f});
  const Tensor gi = relu.backward(g);
  EXPECT_EQ(gi[0], 0.0f);
  EXPECT_EQ(gi[1], 5.0f);
  EXPECT_EQ(gi[2], 5.0f);
}

// ----------------------------------------------------------------- Pooling

TEST(MaxPool1D, ForwardPicksMaxima) {
  MaxPool1D pool(2);
  const Tensor x({1, 1, 6}, {1, 5, 2, 2, 9, 0});
  const Tensor y = pool.forward(x);
  ASSERT_EQ(y.dim(2), 3u);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 1), 2.0f);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 2), 9.0f);
}

TEST(MaxPool1D, PartialTrailingWindow) {
  MaxPool1D pool(4);
  const Tensor x({1, 1, 6}, {1, 2, 3, 4, 9, 5});
  const Tensor y = pool.forward(x);
  ASSERT_EQ(y.dim(2), 2u);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 1), 9.0f);
}

TEST(MaxPool1D, BackwardRoutesToArgmax) {
  MaxPool1D pool(2);
  const Tensor x({1, 1, 4}, {1, 5, 7, 2});
  pool.forward(x);
  const Tensor g({1, 1, 2}, {10.0f, 20.0f});
  const Tensor gi = pool.backward(g);
  EXPECT_FLOAT_EQ(gi.at3(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(gi.at3(0, 0, 1), 10.0f);
  EXPECT_FLOAT_EQ(gi.at3(0, 0, 2), 20.0f);
  EXPECT_FLOAT_EQ(gi.at3(0, 0, 3), 0.0f);
}

// Reference copies of the mask-tensor ReLU and the branching MaxPool1D
// loops the layers replaced; the layers must match them bit for bit on
// NaN, ±inf, ties, -0.0 and odd lengths.

/// Random tensor whose elements are drawn from the special values as often
/// as from a normal, so windows hold ties, NaNs and infinities.
Tensor special_tensor(Shape shape, Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(), inf, -inf, -0.0f,
                            0.0f, 1.0f, -1.0f, 1e-40f};
  Tensor t(std::move(shape));
  for (float& v : t.data()) {
    v = rng.uniform() < 0.5
            ? specials[rng.uniform_int(0, 7)]
            : static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

TEST(ReLU, MatchesMaskReferenceOnSpecialValues) {
  Rng rng(40);
  for (const std::size_t len : {1u, 7u, 33u, 64u}) {
    const Tensor x = special_tensor({3, len}, rng);
    const Tensor g = special_tensor({3, len}, rng);
    // Reference forward: mask 1 where x > 0, output zeroed elsewhere.
    Tensor mask(x.shape());
    Tensor want_out = x;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (want_out[i] > 0.0f) {
        mask[i] = 1.0f;
      } else {
        want_out[i] = 0.0f;
      }
    }
    Tensor want_grad = g;
    for (std::size_t i = 0; i < g.size(); ++i) {
      want_grad[i] *= mask[i];
    }
    ReLU relu;
    expect_same_bits(relu.forward(x), want_out, "ReLU forward", len);
    expect_same_bits(relu.backward(g), want_grad, "ReLU backward", len);
  }
}

TEST(MaxPool1D, MatchesBranchingReferenceOnSpecialValues) {
  Rng rng(41);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const std::size_t window : {1u, 2u, 3u}) {
    for (const std::size_t len : {1u, 2u, 5u, 7u, 8u, 9u, 16u}) {
      const std::size_t n = 3, c = 2;
      Tensor x = special_tensor({n, c, len}, rng);
      // Whole rows of NaN and of -inf: every window yields -inf at its
      // first position.
      for (std::size_t l = 0; l < len; ++l) {
        x.at3(0, 0, l) = nan;
        x.at3(0, 1, l) = -inf;
      }
      MaxPool1D pool(window);
      const std::size_t out_len = pool.output_length(len);
      // Reference forward.
      Tensor want_out({n, c, out_len});
      std::vector<std::size_t> argmax(n * c * out_len, 0);
      for (std::size_t row = 0; row < n * c; ++row) {
        const float* irow = x.data().data() + row * len;
        float* orow = want_out.data().data() + row * out_len;
        for (std::size_t t = 0; t < out_len; ++t) {
          const std::size_t start = t * window;
          const std::size_t stop = std::min(start + window, len);
          float best = -inf;
          std::size_t best_idx = start;
          for (std::size_t l = start; l < stop; ++l) {
            if (irow[l] > best) {
              best = irow[l];
              best_idx = l;
            }
          }
          orow[t] = best;
          argmax[row * out_len + t] = row * len + best_idx;
        }
      }
      // Reference backward: scatter-add through the argmax.
      const Tensor g = special_tensor({n, c, out_len}, rng);
      Tensor want_grad(x.shape());
      for (std::size_t i = 0; i < g.size(); ++i) {
        want_grad[argmax[i]] += g[i];
      }
      SCOPED_TRACE(testing::Message() << "window " << window << " length " << len);
      expect_same_bits(pool.forward(x), want_out, "MaxPool1D forward", len);
      expect_same_bits(pool.backward(g), want_grad, "MaxPool1D backward", len);
    }
  }
}

TEST(GlobalAvgPool1D, ForwardAndGradientCheck) {
  GlobalAvgPool1D pool;
  const Tensor x({1, 2, 4}, {1, 2, 3, 4, 10, 20, 30, 40});
  const Tensor y = pool.forward(x);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at2(0, 1), 25.0f);

  Rng rng(16);
  GlobalAvgPool1D pool2;
  const Tensor xr = random_tensor({2, 3, 5}, rng);
  const auto result = check_gradients(pool2, xr, half_sq_loss, half_sq_grad);
  EXPECT_TRUE(result.ok()) << result.max_input_error;
}

// -------------------------------------------------------------- Sequential

TEST(Sequential, ChainsForwardBackward) {
  Rng rng(17);
  Sequential net;
  net.emplace<Linear>(4, 8, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(8, 2, rng);
  EXPECT_EQ(net.layer_count(), 3u);
  EXPECT_EQ(net.parameter_count(), 4u * 8 + 8 + 8 * 2 + 2);

  const Tensor x = random_tensor({5, 4}, rng);
  const Tensor y = net.forward(x);
  EXPECT_EQ(y.dim(1), 2u);
  const Tensor gi = net.backward(Tensor::full({5, 2}, 1.0f));
  EXPECT_EQ(gi.shape(), x.shape());
}

TEST(Sequential, GradientCheckWholeStack) {
  // Smooth layers only: finite differences are unreliable at ReLU/max-pool
  // kinks (the perturbation flips the active branch), so the stack check
  // uses convolutions and average pooling; the kinked layers have dedicated
  // behavioural tests above.
  Rng rng(18);
  Sequential net;
  net.emplace<Conv1D>(2, 3, 3, rng, 1, 1);
  net.emplace<Conv1D>(3, 2, 3, rng, 2, 0);
  net.emplace<GlobalAvgPool1D>();
  net.emplace<Linear>(2, 2, rng);
  const Tensor x = random_tensor({2, 2, 8}, rng, 0.7);
  const auto result = check_gradients(net, x, half_sq_loss, half_sq_grad, 5e-3f);
  EXPECT_TRUE(result.ok(3e-2)) << result.max_param_error << " / "
                               << result.max_input_error;
}

TEST(Sequential, EmptyStackRejected) {
  Sequential net;
  EXPECT_THROW(net.forward(Tensor({1, 1})), PreconditionError);
}

// ------------------------------------------------------------------ Losses

TEST(Loss, MseValueAndGradient) {
  const Tensor pred({2}, {1.0f, 3.0f});
  const Tensor target({2}, {0.0f, 1.0f});
  const auto loss = mse_loss(pred, target);
  EXPECT_NEAR(loss.value, (1.0f + 4.0f) / 2.0f, 1e-6);
  EXPECT_NEAR(loss.grad[0], 2.0f * 1.0f / 2.0f, 1e-6);
  EXPECT_NEAR(loss.grad[1], 2.0f * 2.0f / 2.0f, 1e-6);
}

TEST(Loss, HuberQuadraticInside) {
  const Tensor pred({1}, {0.5f});
  const Tensor target({1}, {0.0f});
  const Tensor mask({1}, {1.0f});
  const auto loss = masked_huber_loss(pred, target, mask, 1.0f);
  EXPECT_NEAR(loss.value, 0.125f, 1e-6);
  EXPECT_NEAR(loss.grad[0], 0.5f, 1e-6);
}

TEST(Loss, HuberLinearOutside) {
  const Tensor pred({1}, {3.0f});
  const Tensor target({1}, {0.0f});
  const Tensor mask({1}, {1.0f});
  const auto loss = masked_huber_loss(pred, target, mask, 1.0f);
  EXPECT_NEAR(loss.value, 1.0f * (3.0f - 0.5f), 1e-6);
  EXPECT_NEAR(loss.grad[0], 1.0f, 1e-6);
}

TEST(Loss, MaskedHuberIgnoresUnmasked) {
  const Tensor pred({4}, {1.0f, 100.0f, 2.0f, -50.0f});
  const Tensor target({4}, {0.0f, 0.0f, 0.0f, 0.0f});
  const Tensor mask({4}, {1.0f, 0.0f, 1.0f, 0.0f});
  const auto loss = masked_huber_loss(pred, target, mask, 1.0f);
  // Mean over the two masked elements: 0.5·1² inside, 1·(2 − 0.5) outside.
  EXPECT_NEAR(loss.value, (0.5f + 1.5f) / 2.0f, 1e-6);
  EXPECT_NEAR(loss.grad[0], 0.5f, 1e-6);
  EXPECT_NEAR(loss.grad[2], 0.5f, 1e-6);
  EXPECT_EQ(loss.grad[1], 0.0f);
  EXPECT_EQ(loss.grad[3], 0.0f);
}

TEST(Loss, MaskedEmptyMaskRejected) {
  const Tensor pred({2});
  const Tensor target({2});
  const Tensor mask({2});
  EXPECT_THROW(masked_huber_loss(pred, target, mask), PreconditionError);
}

TEST(Loss, ShapeMismatchRejected) {
  EXPECT_THROW(mse_loss(Tensor({2}), Tensor({3})), PreconditionError);
}

// -------------------------------------------------------------- Optimisers

TEST(Adam, ConvergesOnQuadratic) {
  Rng rng(21);
  Linear layer(1, 1, rng);
  Adam opt(layer.parameters(), 0.05);
  // Minimise (w·1 + b - 3)²; optimum w + b = 3.
  const Tensor x = Tensor::from_rows({{1.0f}});
  const Tensor target = Tensor::from_rows({{3.0f}});
  for (int i = 0; i < 500; ++i) {
    const Tensor y = layer.forward(x);
    const auto loss = mse_loss(y, target);
    layer.zero_grad();
    layer.backward(loss.grad);
    opt.step();
  }
  const Tensor y = layer.forward(x);
  EXPECT_NEAR(y[0], 3.0f, 1e-2);
  EXPECT_EQ(opt.step_count(), 500u);
}

TEST(Adam, GradClipBoundsNorm) {
  Rng rng(22);
  Linear layer(4, 4, rng);
  Adam opt(layer.parameters(), 0.01);
  auto params = layer.parameters();
  params[0].grad->fill(100.0f);
  const double pre = opt.clip_grad_norm(1.0);
  EXPECT_GT(pre, 1.0);
  double sq = 0.0;
  for (const auto& p : layer.parameters()) {
    for (const float g : p.grad->data()) {
      sq += static_cast<double>(g) * g;
    }
  }
  EXPECT_NEAR(std::sqrt(sq), 1.0, 1e-4);
}

// ClipGradNorm: the lane-sum shortcut must never change a bit of what the
// sequential chain decides. The reference is clip_grad_norm as it was
// before the shortcut: one ascending chain over every gradient, then the
// float scale.

double clip_sequential(const std::vector<ParamRef>& params, double max_norm) {
  double sq = 0.0;
  for (const auto& p : params) {
    for (const float g : p.grad->data()) {
      sq += static_cast<double>(g) * static_cast<double>(g);
    }
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const auto scale = static_cast<float>(max_norm / norm);
    for (const auto& p : params) {
      *p.grad *= scale;
    }
  }
  return norm;
}

void fill_gradients(const std::vector<ParamRef>& params, double scale, std::uint64_t seed) {
  Rng rng(seed);
  for (const auto& p : params) {
    for (float& g : p.grad->data()) {
      g = static_cast<float>(rng.normal(0.0, scale));
    }
  }
}

void expect_same_bits(const std::vector<ParamRef>& got, const std::vector<ParamRef>& want,
                      bool grads) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Tensor& g = grads ? *got[i].grad : *got[i].value;
    const Tensor& w = grads ? *want[i].grad : *want[i].value;
    ASSERT_EQ(g.size(), w.size());
    for (std::size_t j = 0; j < g.size(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(g[j]), std::bit_cast<std::uint32_t>(w[j]))
          << (grads ? "gradient " : "weight ") << i << "[" << j << "]";
    }
  }
}

/// Two identical layers and an Adam on each: `got` steps after
/// clip_grad_norm, `want` after clip_sequential, both on the same
/// gradients at `grad_scale`. Returns both pre-clip norms.
std::pair<double, double> clip_then_step(double grad_scale, double max_norm) {
  Rng rng_got(40), rng_want(40);
  Linear got(24, 16, rng_got), want(24, 16, rng_want);
  Adam opt_got(got.parameters(), 1e-3), opt_want(want.parameters(), 1e-3);
  fill_gradients(got.parameters(), grad_scale, 41);
  fill_gradients(want.parameters(), grad_scale, 41);
  const double norm_got = opt_got.clip_grad_norm(max_norm);
  const double norm_want = clip_sequential(want.parameters(), max_norm);
  expect_same_bits(got.parameters(), want.parameters(), /*grads=*/true);
  opt_got.step();
  opt_want.step();
  expect_same_bits(got.parameters(), want.parameters(), /*grads=*/false);
  return {norm_got, norm_want};
}

TEST(ClipGradNorm, FarBelowMarginStepsAsSequential) {
  // Norm ~0.2 against max 10: the lane sum decides, nothing is scaled, and
  // the norm agrees with the chain's to rounding.
  const auto [got, want] = clip_then_step(0.01, 10.0);
  EXPECT_LT(want, 10.0 / 8);
  EXPECT_NEAR(got, want, 1e-12 * want);
}

TEST(ClipGradNorm, BetweenMarginAndMaxTakesSequentialChain) {
  // One gradient of 1 and 4095 of 2^-27, whose squares 2^-54 are each
  // below half an ulp of 1: the chain, starting from the 1, drops every
  // one of them and sums to exactly 1, while the lane sum keeps the lanes
  // without the 1 exact and ends near 1 + 2^-42. With max 1.5 the sum lies
  // between max²/4 and max², where only the chain may decide, so the norm
  // returned is exactly 1 and nothing is scaled.
  Rng rng(42);
  Linear layer(64, 64, rng);
  Adam opt(layer.parameters(), 1e-3);
  const auto params = layer.parameters();
  params[0].grad->fill(std::ldexp(1.0f, -27));
  (*params[0].grad)[0] = 1.0f;
  params[1].grad->zero();
  double lane_sq = 0.0;
  for (const auto& p : params) {
    lane_sq += kernels::sum_squares<dtmsv::util::simd::default_backend>(
        p.grad->data().data(), p.grad->size());
  }
  ASSERT_NE(lane_sq, 1.0) << "the lane sum must differ from the chain's for this test";
  ASSERT_GT(lane_sq, 1.5 * 1.5 / 4);
  EXPECT_EQ(opt.clip_grad_norm(1.5), 1.0);
  EXPECT_EQ((*params[0].grad)[1], std::ldexp(1.0f, -27));
}

TEST(ClipGradNorm, ClippingScaleEqualsSequential) {
  // Norm ~40 against max 10: the same norm, the same float scale, the
  // same scaled gradients and weights after the step, bit for bit.
  const auto [got, want] = clip_then_step(2.0, 10.0);
  EXPECT_GT(want, 10.0);
  EXPECT_EQ(got, want);
}

TEST(ClipGradNorm, NonFiniteGradientsReturnNonFiniteNorm) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const float bad : {nan, inf, -inf}) {
    Rng rng(43);
    Linear layer(8, 4, rng);
    Adam opt(layer.parameters(), 1e-3);
    const auto params = layer.parameters();
    fill_gradients(params, 0.1, 44);
    (*params[1].grad)[2] = bad;
    const float kept = (*params[0].grad)[0];
    const double norm = opt.clip_grad_norm(1.0);
    EXPECT_FALSE(std::isfinite(norm)) << bad;
    EXPECT_EQ(std::isnan(norm), std::isnan(bad)) << bad;
    EXPECT_EQ((*params[0].grad)[0], kept) << "gradients are left as they are";
  }
}

TEST(Adam, RejectsBadHyperparameters) {
  Rng rng(23);
  Linear layer(1, 1, rng);
  EXPECT_THROW(Adam(layer.parameters(), 0.0), PreconditionError);
  EXPECT_THROW(Adam(layer.parameters(), -1.0), PreconditionError);
  EXPECT_THROW(Adam(layer.parameters(), 0.1, 1.0), PreconditionError);
}

// ----------------------------------------------------------- Serialisation

TEST(Serialize, SaveLoadRoundTrip) {
  Rng rng(24);
  Sequential net;
  net.emplace<Linear>(3, 4, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(4, 2, rng);

  std::stringstream stream;
  save_parameters(net, stream);

  Rng rng2(999);
  Sequential other;
  other.emplace<Linear>(3, 4, rng2);
  other.emplace<ReLU>();
  other.emplace<Linear>(4, 2, rng2);
  load_parameters(other, stream);

  const Tensor x = random_tensor({2, 3}, rng);
  const Tensor y1 = net.forward(x);
  const Tensor y2 = other.forward(x);
  for (std::size_t i = 0; i < y1.size(); ++i) {
    EXPECT_NEAR(y1[i], y2[i], 1e-5);
  }
}

TEST(Serialize, ShapeMismatchThrows) {
  Rng rng(25);
  Sequential net;
  net.emplace<Linear>(3, 4, rng);
  std::stringstream stream;
  save_parameters(net, stream);

  Sequential wrong;
  wrong.emplace<Linear>(3, 5, rng);
  EXPECT_THROW(load_parameters(wrong, stream), RuntimeError);
}

TEST(Serialize, BadMagicThrows) {
  Rng rng(26);
  Sequential net;
  net.emplace<Linear>(2, 2, rng);
  std::stringstream stream("garbage 1");
  EXPECT_THROW(load_parameters(net, stream), RuntimeError);
}

TEST(Serialize, CopyParametersMakesNetworksIdentical) {
  Rng rng(27);
  Sequential a;
  a.emplace<Linear>(3, 3, rng);
  Sequential b;
  b.emplace<Linear>(3, 3, rng);
  copy_parameters(a, b);
  const Tensor x = random_tensor({1, 3}, rng);
  const Tensor ya = a.forward(x);
  const Tensor yb = b.forward(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya[i], yb[i]);
  }
}

// ---------------------------------------------- End-to-end training sanity

TEST(Training, CnnAutoencoderReducesLoss) {
  Rng rng(29);
  Sequential encoder;
  encoder.emplace<Conv1D>(2, 4, 3, rng, 1, 1);
  encoder.emplace<ReLU>();
  encoder.emplace<GlobalAvgPool1D>();
  encoder.emplace<Linear>(4, 3, rng);
  Sequential decoder;
  decoder.emplace<Linear>(3, 16, rng);
  decoder.emplace<ReLU>();
  decoder.emplace<Linear>(16, 2 * 8, rng);

  auto params = encoder.parameters();
  for (auto& p : decoder.parameters()) {
    params.push_back(p);
  }
  Adam opt(std::move(params), 3e-3);

  // Structured (compressible) input: per-sample phase-shifted sinusoids.
  Tensor x({16, 2, 8});
  for (std::size_t n = 0; n < 16; ++n) {
    const double phase = 2.0 * M_PI * static_cast<double>(n) / 16.0;
    const double amp = 0.5 + 0.05 * static_cast<double>(n);
    for (std::size_t t = 0; t < 8; ++t) {
      const double arg = 2.0 * M_PI * static_cast<double>(t) / 8.0 + phase;
      x.at3(n, 0, t) = static_cast<float>(amp * std::sin(arg));
      x.at3(n, 1, t) = static_cast<float>(amp * std::cos(arg));
    }
  }
  const Tensor target = x.reshaped({16, 16});

  float first_loss = 0.0f;
  float last_loss = 0.0f;
  for (int epoch = 0; epoch < 150; ++epoch) {
    const Tensor recon = decoder.forward(encoder.forward(x));
    const auto loss = mse_loss(recon, target);
    if (epoch == 0) {
      first_loss = loss.value;
    }
    last_loss = loss.value;
    encoder.zero_grad();
    decoder.zero_grad();
    encoder.backward(decoder.backward(loss.grad));
    opt.step();
  }
  EXPECT_LT(last_loss, 0.6f * first_loss)
      << "autoencoder failed to learn: " << first_loss << " -> " << last_loss;
}

}  // namespace
