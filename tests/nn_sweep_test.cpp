// Parameterized sweeps over the nn substrate: gradient checks across layer
// geometries, pooling window grids, optimizer convergence across learning
// rates, and loss-function identities — the property-style coverage that
// protects the learning stack against geometry-specific regressions.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/gradient_check.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"

namespace {

using namespace dtmsv::nn;
using dtmsv::util::Rng;

Tensor random_tensor(Shape shape, Rng& rng, double scale = 1.0) {
  Tensor t(std::move(shape));
  for (float& v : t.data()) {
    v = static_cast<float>(rng.normal(0.0, scale));
  }
  return t;
}

float half_sq_loss(const Tensor& y) {
  float total = 0.0f;
  for (const float v : y.data()) {
    total += 0.5f * v * v;
  }
  return total;
}
Tensor half_sq_grad(const Tensor& y) { return y; }

// --------------------------------------------- Conv1D geometry sweep

struct ConvGeom {
  std::size_t in_ch;
  std::size_t out_ch;
  std::size_t kernel;
  std::size_t stride;
  std::size_t padding;
  std::size_t length;
};

class ConvGeometrySweep : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(ConvGeometrySweep, OutputLengthAndGradients) {
  const ConvGeom g = GetParam();
  Rng rng(42);
  Conv1D conv(g.in_ch, g.out_ch, g.kernel, rng, g.stride, g.padding);

  const std::size_t expected_len =
      (g.length + 2 * g.padding - g.kernel) / g.stride + 1;
  ASSERT_EQ(conv.output_length(g.length), expected_len);

  const Tensor x = random_tensor({2, g.in_ch, g.length}, rng, 0.5);
  const Tensor y = conv.forward(x);
  ASSERT_EQ(y.dim(0), 2u);
  ASSERT_EQ(y.dim(1), g.out_ch);
  ASSERT_EQ(y.dim(2), expected_len);

  const auto result = check_gradients(conv, x, half_sq_loss, half_sq_grad);
  EXPECT_TRUE(result.ok(3e-2)) << "geom (" << g.in_ch << "," << g.out_ch << ",k"
                               << g.kernel << ",s" << g.stride << ",p" << g.padding
                               << ",L" << g.length << "): param "
                               << result.max_param_error << " input "
                               << result.max_input_error;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGeometrySweep,
    ::testing::Values(ConvGeom{1, 1, 1, 1, 0, 4}, ConvGeom{1, 2, 3, 1, 0, 6},
                      ConvGeom{2, 3, 3, 1, 1, 8}, ConvGeom{3, 2, 5, 1, 2, 10},
                      ConvGeom{2, 2, 3, 2, 0, 9}, ConvGeom{2, 4, 3, 2, 1, 8},
                      ConvGeom{4, 1, 7, 1, 3, 12}, ConvGeom{1, 1, 4, 4, 0, 16}));

// --------------------------------------------- Linear shape sweep

struct LinearGeom {
  std::size_t in;
  std::size_t out;
  std::size_t batch;
};

class LinearSweep : public ::testing::TestWithParam<LinearGeom> {};

TEST_P(LinearSweep, ShapesAndGradients) {
  const LinearGeom g = GetParam();
  Rng rng(7);
  Linear layer(g.in, g.out, rng);
  const Tensor x = random_tensor({g.batch, g.in}, rng, 0.7);
  const Tensor y = layer.forward(x);
  ASSERT_EQ(y.dim(0), g.batch);
  ASSERT_EQ(y.dim(1), g.out);
  const auto result = check_gradients(layer, x, half_sq_loss, half_sq_grad);
  EXPECT_TRUE(result.ok(2e-2)) << result.max_param_error << " / "
                               << result.max_input_error;
}

INSTANTIATE_TEST_SUITE_P(Shapes, LinearSweep,
                         ::testing::Values(LinearGeom{1, 1, 1}, LinearGeom{1, 8, 4},
                                           LinearGeom{8, 1, 4}, LinearGeom{6, 6, 2},
                                           LinearGeom{16, 3, 7}));

// --------------------------------------------- MaxPool window sweep

class MaxPoolSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MaxPoolSweep, OutputLengthAndGradientRouting) {
  const std::size_t window = GetParam();
  MaxPool1D pool(window);
  Rng rng(8);
  const std::size_t length = 13;  // deliberately not divisible
  const Tensor x = random_tensor({2, 3, length}, rng);
  const Tensor y = pool.forward(x);
  ASSERT_EQ(y.dim(2), (length + window - 1) / window);

  // Backward conserves total gradient mass (each output routes to exactly
  // one input).
  Tensor g(y.shape());
  g.fill(1.0f);
  const Tensor gi = pool.backward(g);
  EXPECT_FLOAT_EQ(gi.sum(), g.sum());
}

INSTANTIATE_TEST_SUITE_P(Windows, MaxPoolSweep, ::testing::Values(1, 2, 3, 5, 13, 20));

// --------------------------------------------- optimizer convergence sweep

class OptimizerSweep : public ::testing::TestWithParam<double> {};

TEST_P(OptimizerSweep, FitsLinearRegression) {
  const double lr = GetParam();
  Rng rng(9);
  Linear layer(2, 1, rng);
  Adam opt(layer.parameters(), lr);

  // Ground truth: y = 2 x0 - 3 x1 + 0.5.
  const auto target_fn = [](float x0, float x1) { return 2.0f * x0 - 3.0f * x1 + 0.5f; };
  Tensor x({16, 2});
  Tensor target({16, 1});
  for (std::size_t i = 0; i < 16; ++i) {
    x.at2(i, 0) = static_cast<float>(rng.uniform(-1.0, 1.0));
    x.at2(i, 1) = static_cast<float>(rng.uniform(-1.0, 1.0));
    target.at2(i, 0) = target_fn(x.at2(i, 0), x.at2(i, 1));
  }

  float loss_value = 0.0f;
  for (int epoch = 0; epoch < 2000; ++epoch) {
    const Tensor y = layer.forward(x);
    const auto loss = mse_loss(y, target);
    loss_value = loss.value;
    layer.zero_grad();
    layer.backward(loss.grad);
    opt.step();
  }
  EXPECT_LT(loss_value, 1e-3f) << "lr=" << lr;
  EXPECT_NEAR(layer.weights()[0], 2.0f, 0.05f);
  EXPECT_NEAR(layer.weights()[1], -3.0f, 0.05f);
  EXPECT_NEAR(layer.bias()[0], 0.5f, 0.05f);
}

INSTANTIATE_TEST_SUITE_P(Cases, OptimizerSweep, ::testing::Values(1e-2, 3e-2));

// --------------------------------------------- loss identities

class LossIdentitySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LossIdentitySweep, HuberEqualsMseInsideDelta) {
  Rng rng(GetParam());
  // Errors all within |e| <= delta: huber = 0.5 mse, grads equal mse/2.
  Tensor pred({16});
  Tensor target({16});
  for (std::size_t i = 0; i < 16; ++i) {
    target[i] = static_cast<float>(rng.normal(0.0, 1.0));
    pred[i] = target[i] + static_cast<float>(rng.uniform(-0.9, 0.9));
  }
  const auto mse = mse_loss(pred, target);
  const auto huber = masked_huber_loss(pred, target, Tensor::full({16}, 1.0f), 1.0f);
  EXPECT_NEAR(huber.value, 0.5f * mse.value, 1e-5);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(huber.grad[i], 0.5f * mse.grad[i], 1e-6);
  }
}

TEST_P(LossIdentitySweep, MaskedLossMatchesSubsetLoss) {
  Rng rng(GetParam() + 17);
  Tensor pred({8});
  Tensor target({8});
  Tensor mask({8});
  std::vector<float> sub_pred;
  std::vector<float> sub_target;
  for (std::size_t i = 0; i < 8; ++i) {
    pred[i] = static_cast<float>(rng.normal(0.0, 1.0));
    target[i] = static_cast<float>(rng.normal(0.0, 1.0));
    if (i % 2 == 0) {
      mask[i] = 1.0f;
      sub_pred.push_back(pred[i]);
      sub_target.push_back(target[i]);
    }
  }
  // A delta past every error keeps the Huber loss quadratic: half the MSE
  // of the masked subset.
  const auto masked = masked_huber_loss(pred, target, mask, 100.0f);
  const auto subset =
      mse_loss(Tensor::from_vector(sub_pred), Tensor::from_vector(sub_target));
  EXPECT_NEAR(masked.value, 0.5f * subset.value, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossIdentitySweep, ::testing::Values(1, 2, 3, 4));

// --------------------------------------------- activation sweep

class ActivationRangeSweep : public ::testing::TestWithParam<double> {};

TEST_P(ActivationRangeSweep, OutputsInCanonicalRanges) {
  const double scale = GetParam();
  Rng rng(11);
  const Tensor x = random_tensor({4, 16}, rng, scale);

  // Bind results to named tensors: data() is a span into the tensor, so
  // iterating a temporary would dangle.
  ReLU relu;
  const Tensor yr = relu.forward(x);
  for (const float v : yr.data()) {
    EXPECT_GE(v, 0.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, ActivationRangeSweep,
                         ::testing::Values(0.1, 1.0, 10.0, 100.0));

}  // namespace
