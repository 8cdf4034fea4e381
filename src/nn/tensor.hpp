// Dense row-major float tensor: the numeric substrate for the paper's
// learning components (1D-CNN compressor, DDQN Q-networks).
//
// Deliberately minimal: shapes are dynamic, storage is contiguous
// std::vector<float>, and there is no autograd graph — layers implement
// explicit forward/backward. This keeps every gradient unit-testable
// against finite differences (see nn/gradient_check.hpp).
#pragma once

#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/simd.hpp"

namespace dtmsv::nn {

/// The single multiply-accumulate primitive of every matmul kernel:
/// fused (hardware FMA) when the target has fast fmaf, plain mul-add
/// otherwise. Reference implementations (tests, future kernels) must
/// accumulate through this same function, in the same order, to stay
/// bit-identical with the tiled kernels — compiler FP-contraction choices
/// then cannot make two "equivalent" loops disagree. Forwards to the
/// portable SIMD layer's scalar madd, whose vector packs gate FMA on the
/// same macro, so SIMD kernel lanes share these exact semantics.
inline float fused_madd(float a, float b, float acc) {
  return util::simd::madd(a, b, acc);
}

/// Shape of a tensor; empty shape denotes a scalar-like 1-element tensor.
using Shape = std::vector<std::size_t>;

/// Dense row-major float tensor.
class Tensor {
 public:
  /// Empty tensor (rank 0, zero elements). Distinct from a scalar.
  Tensor() = default;

  /// Zero-initialised tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor of the given shape with explicit contents (size must match).
  Tensor(Shape shape, std::vector<float> values);

  /// 1-D tensor from values.
  static Tensor from_vector(std::vector<float> values);
  /// 2-D tensor from nested initialiser, row-major.
  static Tensor from_rows(std::initializer_list<std::initializer_list<float>> rows);
  /// Shape-matching tensor filled with a constant.
  static Tensor full(Shape shape, float value);

  const Shape& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Dimension extent; requires axis < rank().
  std::size_t dim(std::size_t axis) const;

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }

  float& operator[](std::size_t i);
  float operator[](std::size_t i) const;

  /// 2-D element access (row, col). Requires rank() == 2.
  float& at2(std::size_t r, std::size_t c);
  float at2(std::size_t r, std::size_t c) const;

  /// 3-D element access (n, c, l). Requires rank() == 3.
  float& at3(std::size_t n, std::size_t c, std::size_t l);
  float at3(std::size_t n, std::size_t c, std::size_t l) const;

  /// Reinterprets the buffer with a new shape of identical element count.
  Tensor reshaped(Shape new_shape) const;

  /// Gives the tensor `shape` in place, reusing its storage: it allocates
  /// only when the rank or element count outgrows every earlier shape.
  /// Elements that were there keep their values and new ones are zero, so
  /// a caller overwrites (or fill()s) whatever it reads. Layers size their
  /// owned outputs and gradients this way, once per batch shape.
  void resize(std::span<const std::size_t> shape);
  void resize(std::initializer_list<std::size_t> shape) {
    resize(std::span<const std::size_t>(shape.begin(), shape.size()));
  }

  void fill(float value);
  void zero() { fill(0.0f); }

  /// Elementwise in-place operations (shapes must match).
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(float scalar);

  /// Elementwise binary operations.
  friend Tensor operator+(Tensor lhs, const Tensor& rhs) { return lhs += rhs; }
  friend Tensor operator-(Tensor lhs, const Tensor& rhs) { return lhs -= rhs; }
  friend Tensor operator*(Tensor lhs, float scalar) { return lhs *= scalar; }

  /// Sum of all elements.
  float sum() const;
  /// Mean of all elements; requires non-empty.
  float mean() const;
  /// Maximum absolute element (0 for empty).
  float abs_max() const;

  /// Matrix product: (m×k) · (k×n) -> (m×n). Requires rank 2 operands.
  static Tensor matmul(const Tensor& a, const Tensor& b);
  /// Matrix product with b transposed: (m×k) · (n×k)ᵀ -> (m×n).
  static Tensor matmul_bt(const Tensor& a, const Tensor& b);
  /// Matrix product with a transposed: (k×m)ᵀ · (k×n) -> (m×n).
  static Tensor matmul_at(const Tensor& a, const Tensor& b);

  /// The same three products written into `out`, which is resized (see
  /// resize()) and overwritten: bit-identical to the returning forms, with
  /// no allocation once `out` has held a product that large. matmul_bt's
  /// batch path transposes b into `bt`, reused the same way.
  static void matmul(const Tensor& a, const Tensor& b, Tensor& out);
  static void matmul_bt(const Tensor& a, const Tensor& b, Tensor& out,
                        std::vector<float>& bt);
  static void matmul_at(const Tensor& a, const Tensor& b, Tensor& out);

  /// Human-readable shape, e.g. "[32, 4, 16]".
  std::string shape_string() const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

/// True when shapes are identical.
bool same_shape(const Tensor& a, const Tensor& b);

}  // namespace dtmsv::nn
