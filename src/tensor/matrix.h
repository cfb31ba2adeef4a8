// Dense row-major float32 matrix.
//
// All neural-network state and activations in simcard are Matrix objects.
// Rows are the batch dimension by convention; a vector is a 1xN matrix.
// The class is deliberately small: shape bookkeeping, element access, and a
// few whole-matrix helpers. Numerical kernels live in tensor/ops.h.
#ifndef SIMCARD_TENSOR_MATRIX_H_
#define SIMCARD_TENSOR_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/status.h"

namespace simcard {

/// \brief Allocator whose valueless construct() default-initializes — a
/// no-op for float — so Matrix::Uninit can skip the zero-fill for outputs
/// every element of which is about to be written. Explicit fills
/// (vector(n, 0.0f), assign, push_back) still construct values as usual.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// \brief Row-major float32 matrix with value semantics.
class Matrix {
 public:
  using Buffer = std::vector<float, DefaultInitAllocator<float>>;

  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}
  Matrix(size_t rows, size_t cols, const std::vector<float>& data)
      : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
    assert(data_.size() == rows_ * cols_);
  }

  /// All-zeros matrix.
  static Matrix Zeros(size_t rows, size_t cols) { return Matrix(rows, cols); }

  /// Matrix with UNINITIALIZED contents: the kernels' fast path for outputs
  /// that write every element before any read. Reading an element before
  /// writing it is undefined — never hand one of these out partially
  /// written.
  static Matrix Uninit(size_t rows, size_t cols) {
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_ = Buffer(rows * cols);
    return m;
  }

  /// Constant-filled matrix.
  static Matrix Full(size_t rows, size_t cols, float value);

  /// I.i.d. N(0, stddev^2) entries drawn from `rng`.
  static Matrix Gaussian(size_t rows, size_t cols, float stddev, Rng* rng);

  /// Wraps one row of external data (copies it) as a 1xN matrix.
  static Matrix RowVector(const std::vector<float>& values);
  static Matrix RowVector(const float* values, size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float at(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  float* Row(size_t r) {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }
  const float* Row(size_t r) const {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  const Buffer& storage() const { return data_; }

  /// Sets every element to `value`.
  void Fill(float value);

  /// Copies `src` (length cols()) into row `r`.
  void SetRow(size_t r, const float* src);

  /// Returns a copy of rows [begin, end).
  Matrix SliceRows(size_t begin, size_t end) const;

  /// Returns a copy of columns [begin, end).
  Matrix SliceCols(size_t begin, size_t end) const;

  /// Sum of all elements.
  double Sum() const;

  /// Frobenius norm.
  double Norm() const;

  /// Largest absolute element.
  float MaxAbs() const;

  /// True when shapes and all elements match `other` within `tol`.
  bool AllClose(const Matrix& other, float tol = 1e-5f) const;

  /// Debug rendering of shape + leading elements.
  std::string ToString(size_t max_elems = 16) const;

  void Serialize(Serializer* out) const;
  Status Deserialize(Deserializer* in);

 private:
  size_t rows_;
  size_t cols_;
  Buffer data_;
};

}  // namespace simcard

#endif  // SIMCARD_TENSOR_MATRIX_H_
