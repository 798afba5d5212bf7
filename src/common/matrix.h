// Minimal dense row-major matrix of doubles, plus an immutable CSR
// (compressed sparse row) view of it.
//
// Used for N-by-M preference matrices and per-(user,file) access matrices.
// Header-only by design: the types are storage conventions, not behaviour.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/check.h"

namespace opus {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  // Builds from nested initializer data; all rows must have equal length.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows) {
    if (rows.empty()) return Matrix();
    Matrix m(rows.size(), rows[0].size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      OPUS_CHECK_EQ(rows[i].size(), m.cols_);
      for (std::size_t j = 0; j < m.cols_; ++j) m(i, j) = rows[i][j];
    }
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t i, std::size_t j) {
    OPUS_CHECK_LT(i, rows_);
    OPUS_CHECK_LT(j, cols_);
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    OPUS_CHECK_LT(i, rows_);
    OPUS_CHECK_LT(j, cols_);
    return data_[i * cols_ + j];
  }

  std::span<const double> row(std::size_t i) const {
    OPUS_CHECK_LT(i, rows_);
    return {data_.data() + i * cols_, cols_};
  }
  std::span<double> row(std::size_t i) {
    OPUS_CHECK_LT(i, rows_);
    return {data_.data() + i * cols_, cols_};
  }

  bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// CSR (compressed sparse row) view of a non-negative matrix.
//
// Zipf/TPC-H preference matrices are overwhelmingly sparse, so the PF
// solver's Objective/Gradient passes iterate nonzeros only (O(nnz) instead
// of O(N*M)). Building the view validates every entry once (entries must be
// non-negative), which hoists the per-solve preference validation out of the
// solver's hot path: OpuS's N+1 leave-one-out solves share one view and
// never re-validate the matrix. Per-row sums are cached at build time for
// the active-user test and the tax welfare accounting.
//
// A shared view (CachingProblem's cache) is treated as immutable. The
// mutating helpers (NormalizeRowsInPlace, ZeroRow, Compact) exist for
// owned copies only: sparse problem construction and the allocator's
// cross-window warm state, which tombstones departed users' rows and
// compacts the storage under churn.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  // Builds directly from CSR parts (no dense intermediate) — the only way
  // to construct instances whose dense form would not fit in memory.
  // `row_ptr` has rows+1 monotone entries ending at col_idx.size(); each
  // row's columns must be strictly ascending and < cols; values must be
  // non-negative (zeros are permitted and simply carried).
  static CsrMatrix FromParts(std::size_t rows, std::size_t cols,
                             std::vector<std::size_t> row_ptr,
                             std::vector<std::uint32_t> col_idx,
                             std::vector<double> values) {
    OPUS_CHECK_EQ(row_ptr.size(), rows + 1);
    OPUS_CHECK_EQ(col_idx.size(), values.size());
    OPUS_CHECK_EQ(row_ptr[0], 0u);
    OPUS_CHECK_EQ(row_ptr[rows], col_idx.size());
    CsrMatrix c;
    c.rows_ = rows;
    c.cols_ = cols;
    c.row_ptr_ = std::move(row_ptr);
    c.col_idx_ = std::move(col_idx);
    c.values_ = std::move(values);
    c.row_sums_.assign(rows, 0.0);
    for (std::size_t i = 0; i < rows; ++i) {
      OPUS_CHECK_LE(c.row_ptr_[i], c.row_ptr_[i + 1]);
      double sum = 0.0;
      for (std::size_t k = c.row_ptr_[i]; k < c.row_ptr_[i + 1]; ++k) {
        OPUS_CHECK_LT(c.col_idx_[k], cols);
        if (k > c.row_ptr_[i]) OPUS_CHECK_LT(c.col_idx_[k - 1], c.col_idx_[k]);
        OPUS_CHECK_GE(c.values_[k], 0.0);
        sum += c.values_[k];
      }
      c.row_sums_[i] = sum;
    }
    return c;
  }

  // Builds the view, checking every entry is non-negative (aborts on a
  // negative or NaN entry — the solver's former per-pass validation).
  static CsrMatrix FromDense(const Matrix& dense) {
    CsrMatrix c;
    c.rows_ = dense.rows();
    c.cols_ = dense.cols();
    c.row_ptr_.assign(c.rows_ + 1, 0);
    c.row_sums_.assign(c.rows_, 0.0);
    for (std::size_t i = 0; i < c.rows_; ++i) {
      double sum = 0.0;
      for (std::size_t j = 0; j < c.cols_; ++j) {
        const double v = dense(i, j);
        OPUS_CHECK_GE(v, 0.0);
        if (v > 0.0) {
          c.col_idx_.push_back(static_cast<std::uint32_t>(j));
          c.values_.push_back(v);
          sum += v;
        }
      }
      c.row_ptr_[i + 1] = c.col_idx_.size();
      c.row_sums_[i] = sum;
    }
    return c;
  }

  // Restriction to a strictly ascending subset of columns, renumbered to
  // 0..columns.size()-1. Used by the active-set-restricted leave-one-out
  // tax solves, which only re-optimize coordinates near the departing
  // user's support.
  CsrMatrix ColumnSubset(std::span<const std::size_t> columns) const {
    constexpr std::uint32_t kAbsent = 0xffffffffu;
    std::vector<std::uint32_t> new_index(cols_, kAbsent);
    for (std::size_t k = 0; k < columns.size(); ++k) {
      OPUS_CHECK_LT(columns[k], cols_);
      if (k > 0) OPUS_CHECK_LT(columns[k - 1], columns[k]);
      new_index[columns[k]] = static_cast<std::uint32_t>(k);
    }
    CsrMatrix c;
    c.rows_ = rows_;
    c.cols_ = columns.size();
    c.row_ptr_.assign(rows_ + 1, 0);
    c.row_sums_.assign(rows_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i) {
      double sum = 0.0;
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        const std::uint32_t nj = new_index[col_idx_[k]];
        if (nj == kAbsent) continue;
        c.col_idx_.push_back(nj);
        c.values_.push_back(values_[k]);
        sum += values_[k];
      }
      c.row_ptr_[i + 1] = c.col_idx_.size();
      c.row_sums_[i] = sum;
    }
    return c;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  // Column indices / values of row i's nonzeros, in ascending column order.
  std::span<const std::uint32_t> row_cols(std::size_t i) const {
    OPUS_CHECK_LT(i, rows_);
    return {col_idx_.data() + row_ptr_[i], row_ptr_[i + 1] - row_ptr_[i]};
  }
  std::span<const double> row_vals(std::size_t i) const {
    OPUS_CHECK_LT(i, rows_);
    return {values_.data() + row_ptr_[i], row_ptr_[i + 1] - row_ptr_[i]};
  }

  // Cached sum of row i (identical to summing the dense row: zeros add
  // exactly nothing in IEEE arithmetic).
  double row_sum(std::size_t i) const {
    OPUS_CHECK_LT(i, rows_);
    return row_sums_[i];
  }

  // nnz / (rows * cols); 0 for an empty matrix.
  double NnzRatio() const {
    return rows_ * cols_ == 0
               ? 0.0
               : static_cast<double>(nnz()) /
                     static_cast<double>(rows_ * cols_);
  }

  // Scales every row to sum to 1 (rows summing to 0 stay zero). Identical
  // arithmetic to normalizing the dense row: each stored value is divided
  // by the plain left-to-right sum of the row's entries.
  void NormalizeRowsInPlace() {
    for (std::size_t i = 0; i < rows_; ++i) {
      const double total = row_sums_[i];
      if (total <= 0.0) continue;
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        values_[k] /= total;
      }
      double sum = 0.0;
      for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        sum += values_[k];
      }
      row_sums_[i] = sum;
    }
  }

  // Tombstones row i: its stored values become explicit zeros (the row
  // behaves as empty everywhere — utilities, gradients, L1 distances — at
  // unchanged storage). Returns the number of entries newly zeroed; the
  // owner decides when the accumulated tombstones justify a Compact().
  std::size_t ZeroRow(std::size_t i) {
    OPUS_CHECK_LT(i, rows_);
    std::size_t zeroed = 0;
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      if (values_[k] != 0.0) ++zeroed;
      values_[k] = 0.0;
    }
    row_sums_[i] = 0.0;
    return zeroed;
  }

  // Drops every explicitly-stored zero and releases the freed capacity, so
  // storage returns to O(live nnz) after mass ZeroRow churn.
  void Compact() {
    std::size_t out = 0;
    for (std::size_t i = 0; i < rows_; ++i) {
      const std::size_t begin = row_ptr_[i], end = row_ptr_[i + 1];
      row_ptr_[i] = out;
      for (std::size_t k = begin; k < end; ++k) {
        if (values_[k] == 0.0) continue;
        col_idx_[out] = col_idx_[k];
        values_[out] = values_[k];
        ++out;
      }
    }
    row_ptr_[rows_] = out;
    col_idx_.resize(out);
    values_.resize(out);
    col_idx_.shrink_to_fit();
    values_.shrink_to_fit();
  }

  // Bytes of heap storage held (used by warm-state memory accounting).
  std::size_t MemoryBytes() const {
    return row_ptr_.capacity() * sizeof(std::size_t) +
           col_idx_.capacity() * sizeof(std::uint32_t) +
           values_.capacity() * sizeof(double) +
           row_sums_.capacity() * sizeof(double);
  }

  // Order-dependent O(nnz) content hash over the structure and the value
  // bit patterns (FNV-1a over dims, row extents, columns, and doubles).
  // Two matrices with equal hash are equal up to a ~2^-64 collision — the
  // warm-state problem key trades that collision odds for never storing or
  // comparing a second full copy of the inputs.
  std::uint64_t ContentHash() const {
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xffu;
        h *= 1099511628211ull;
      }
    };
    mix(rows_);
    mix(cols_);
    for (std::size_t i = 1; i < row_ptr_.size(); ++i) mix(row_ptr_[i]);
    for (std::uint32_t c : col_idx_) mix(c);
    for (double v : values_) {
      std::uint64_t bits;
      static_assert(sizeof(bits) == sizeof(v));
      std::memcpy(&bits, &v, sizeof(bits));
      mix(bits);
    }
    return h;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> values_;
  std::vector<double> row_sums_;
};

// L1 distance between row `ia` of `a` and row `ib` of `b` (a two-pointer
// merge over both rows' nonzeros). The allocation window's drift signal
// compares the current problem's rows against the warm state's without
// ever materializing either matrix densely.
inline double RowL1DistanceBetween(const CsrMatrix& a, std::size_t ia,
                                   const CsrMatrix& b, std::size_t ib) {
  const auto ac = a.row_cols(ia);
  const auto av = a.row_vals(ia);
  const auto bc = b.row_cols(ib);
  const auto bv = b.row_vals(ib);
  double dist = 0.0;
  std::size_t i = 0, j = 0;
  while (i < ac.size() && j < bc.size()) {
    if (ac[i] == bc[j]) {
      dist += std::fabs(av[i] - bv[j]);
      ++i;
      ++j;
    } else if (ac[i] < bc[j]) {
      dist += av[i++];
    } else {
      dist += bv[j++];
    }
  }
  for (; i < ac.size(); ++i) dist += av[i];
  for (; j < bc.size(); ++j) dist += bv[j];
  return dist;
}

// FNV-1a over a vector of doubles' bit patterns (order-dependent), used
// with CsrMatrix::ContentHash to key warm state on the problem shape
// (file sizes, priority weights) without retaining full copies.
inline std::uint64_t HashDoubles(std::span<const double> values,
                                 std::uint64_t seed = 1469598103934665603ull) {
  std::uint64_t h = seed;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(values.size());
  for (double v : values) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
  return h;
}

}  // namespace opus
