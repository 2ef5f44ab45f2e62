// Tests for the sparse basis factorization (lp::BasisLu) on its own,
// without the simplex around it:
//
//  - Random bases shaped like simplex bases — many slack (unit) columns,
//    column and row singletons, and a dense bump, under random row and
//    slot permutations — solve to small residuals with ftran and btran,
//    after 0, 1 and 64 product-form updates.
//  - The hypersparse solve path (a unit right-hand side with a one-entry
//    index) agrees with dense right-hand sides, and its index lists every
//    nonzero exactly once.
//  - Structurally and numerically singular bases make factorize() fail,
//    or, when asked, are completed with unit columns on the rows the
//    elimination left unpivoted.
//  - A tiny update pivot is refused and leaves the factors usable.
#include "omn/lp/basis_lu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <set>
#include <vector>

#include "omn/util/rng.hpp"

namespace {

using omn::lp::BasisLu;
using omn::lp::BasisMatrix;
using omn::lp::Completion;
using omn::lp::SparseVector;
using omn::util::Rng;

std::size_t uz(int v) { return static_cast<std::size_t>(v); }

/// A dense m×m matrix, dense[i][r] = entry in raw row i of slot r.
using Dense = std::vector<std::vector<double>>;

BasisMatrix to_matrix(const Dense& b) {
  const int m = static_cast<int>(b.size());
  BasisMatrix out;
  for (int r = 0; r < m; ++r) {
    for (int i = 0; i < m; ++i) {
      if (b[uz(i)][uz(r)] != 0.0) out.add(i, b[uz(i)][uz(r)]);
    }
    out.end_column();
  }
  return out;
}

std::vector<int> shuffled(int m, Rng& rng) {
  std::vector<int> p(uz(m));
  for (int i = 0; i < m; ++i) p[uz(i)] = i;
  for (int i = m - 1; i > 0; --i) {
    const auto j = rng.uniform_index(static_cast<std::uint64_t>(i) + 1);
    std::swap(p[uz(i)], p[j]);
  }
  return p;
}

/// A nonsingular basis shaped like the ones the simplex factorizes: block
/// upper triangular with, in order, a slack (identity) block, an upper
/// triangular block (column singletons once the slacks are gone), a dense
/// diagonally dominant bump of `bump` columns, and a lower triangular
/// block (row singletons), plus sparse entries above the blocks; then rows
/// and slots are permuted at random.
Dense make_basis(int m, int bump, Rng& rng) {
  const int slacks = m * 2 / 5;
  const int upper = m / 5;
  // Block boundaries in permuted-back order: [0, a) slack, [a, b) upper,
  // [b, c) bump, [c, m) lower.
  const int a = slacks;
  const int b = a + upper;
  const int c = b + bump;
  Dense t(uz(m), std::vector<double>(uz(m), 0.0));
  auto nonzero = [&] {
    const double v = rng.uniform(0.5, 2.0);
    return rng.bernoulli(0.5) ? v : -v;
  };
  for (int k = 0; k < m; ++k) {
    if (k < a) {
      t[uz(k)][uz(k)] = 1.0;
    } else if (k < b) {
      t[uz(k)][uz(k)] = nonzero();
      for (int i = a; i < k; ++i) {
        if (rng.bernoulli(0.1)) t[uz(i)][uz(k)] = nonzero();
      }
    } else if (k < c) {
      for (int i = b; i < c; ++i) {
        if (rng.bernoulli(0.6)) t[uz(i)][uz(k)] = nonzero();
      }
      t[uz(k)][uz(k)] = (rng.bernoulli(0.5) ? 1.0 : -1.0) * (bump + 1.0);
    } else {
      t[uz(k)][uz(k)] = nonzero();
      for (int i = k + 1; i < m; ++i) {
        if (rng.bernoulli(0.15)) t[uz(i)][uz(k)] = nonzero();
      }
    }
    // Sparse entries in earlier blocks' rows keep the block structure.
    const int block_start = k < a ? 0 : k < b ? a : k < c ? b : c;
    for (int i = 0; i < block_start; ++i) {
      if (rng.bernoulli(0.04)) t[uz(i)][uz(k)] = nonzero();
    }
  }
  const std::vector<int> rows = shuffled(m, rng);
  const std::vector<int> slots = shuffled(m, rng);
  Dense out(uz(m), std::vector<double>(uz(m), 0.0));
  for (int i = 0; i < m; ++i) {
    for (int k = 0; k < m; ++k) {
      out[uz(rows[uz(i)])][uz(slots[uz(k)])] = t[uz(i)][uz(k)];
    }
  }
  return out;
}

double inf_norm(const std::vector<double>& v) {
  double n = 0.0;
  for (double x : v) n = std::max(n, std::abs(x));
  return n;
}

/// max_i |(B x)_i - rhs_i|, x in slot space, rhs in row space.
double ftran_residual(const Dense& b, const std::vector<double>& x,
                      const std::vector<double>& rhs) {
  double worst = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    double acc = -rhs[i];
    for (std::size_t r = 0; r < b.size(); ++r) acc += b[i][r] * x[r];
    worst = std::max(worst, std::abs(acc));
  }
  return worst;
}

/// max_r |(Bᵀ y)_r - rhs_r|, y in row space, rhs in slot space.
double btran_residual(const Dense& b, const std::vector<double>& y,
                      const std::vector<double>& rhs) {
  double worst = 0.0;
  for (std::size_t r = 0; r < b.size(); ++r) {
    double acc = -rhs[r];
    for (std::size_t i = 0; i < b.size(); ++i) acc += b[i][r] * y[i];
    worst = std::max(worst, std::abs(acc));
  }
  return worst;
}

std::vector<double> random_dense(int m, Rng& rng) {
  std::vector<double> v(uz(m));
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

SparseVector to_sparse(const std::vector<double>& v) {
  SparseVector s;
  s.reset(static_cast<int>(v.size()));
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] != 0.0) s.set(static_cast<int>(i), v[i]);
  }
  return s;
}

/// The index of `v` lists each position at most once and every nonzero.
void expect_index_covers(const SparseVector& v) {
  const std::set<int> listed(v.index.begin(), v.index.end());
  EXPECT_EQ(listed.size(), v.index.size()) << "duplicate index entry";
  for (std::size_t i = 0; i < v.value.size(); ++i) {
    if (v.value[i] != 0.0) {
      EXPECT_TRUE(listed.count(static_cast<int>(i))) << "unlisted " << i;
    }
  }
}

/// Checks ftran and btran against `b`, with dense and with sparse
/// right-hand sides.
void expect_solves(const BasisLu& lu, const Dense& b, Rng& rng,
                   const char* when) {
  const int m = static_cast<int>(b.size());
  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<double> rhs = random_dense(m, rng);
    std::vector<double> x = rhs;
    lu.ftran(x);
    EXPECT_LE(ftran_residual(b, x, rhs), 1e-9 * (1.0 + inf_norm(rhs)))
        << when;
    std::vector<double> y = rhs;
    lu.btran(y);
    EXPECT_LE(btran_residual(b, y, rhs), 1e-9 * (1.0 + inf_norm(rhs)))
        << when;

    // A sparse right-hand side through the index-following overloads.
    std::vector<double> sparse_rhs(uz(m), 0.0);
    for (int k = 0; k < 3; ++k) {
      sparse_rhs[rng.uniform_index(static_cast<std::uint64_t>(m))] =
          rng.uniform(-1.0, 1.0);
    }
    SparseVector sx = to_sparse(sparse_rhs);
    lu.ftran(sx);
    expect_index_covers(sx);
    EXPECT_LE(ftran_residual(b, sx.value, sparse_rhs),
              1e-9 * (1.0 + inf_norm(sparse_rhs)))
        << when;
    SparseVector sy = to_sparse(sparse_rhs);
    lu.btran(sy);
    expect_index_covers(sy);
    EXPECT_LE(btran_residual(b, sy.value, sparse_rhs),
              1e-9 * (1.0 + inf_norm(sparse_rhs)))
        << when;
  }
}

/// Replaces a random admissible slot of `b` with a new sparse column
/// through update(); returns false if update refused it.
bool replace_column(BasisLu& lu, Dense& b, Rng& rng) {
  const int m = static_cast<int>(b.size());
  std::vector<double> a(uz(m), 0.0);
  const int entries = 1 + static_cast<int>(rng.uniform_index(4));
  for (int k = 0; k < entries; ++k) {
    a[rng.uniform_index(static_cast<std::uint64_t>(m))] =
        rng.uniform(0.5, 2.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
  }
  SparseVector w = to_sparse(a);
  lu.ftran(w);
  double biggest = 0.0;
  for (int i : w.index) biggest = std::max(biggest, std::abs(w.value[uz(i)]));
  if (biggest == 0.0) return true;  // a == 0 never happens in practice
  // A slot whose pivot is not too small relative to the column, as the
  // ratio test's largest-|alpha| tie-break would tend to pick.
  std::vector<int> admissible;
  for (int i : w.index) {
    if (std::abs(w.value[uz(i)]) >= 0.1 * biggest) admissible.push_back(i);
  }
  const int slot = admissible[rng.uniform_index(admissible.size())];
  if (!lu.update(slot, w)) return false;
  for (int i = 0; i < m; ++i) b[uz(i)][uz(slot)] = a[uz(i)];
  return true;
}

TEST(BasisLu, SolvesMixedBasesBeforeAndAfterUpdates) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const int m = 40 + static_cast<int>(rng.uniform_index(100));
    Dense b = make_basis(m, m / 5, rng);
    BasisLu lu;
    ASSERT_TRUE(lu.factorize(m, to_matrix(b))) << "seed " << seed;
    EXPECT_EQ(lu.eta_count(), 0);
    expect_solves(lu, b, rng, "0 updates");

    ASSERT_TRUE(replace_column(lu, b, rng));
    EXPECT_EQ(lu.eta_count(), 1);
    expect_solves(lu, b, rng, "1 update");

    for (int k = 1; k < 64; ++k) ASSERT_TRUE(replace_column(lu, b, rng));
    EXPECT_EQ(lu.eta_count(), 64);
    expect_solves(lu, b, rng, "64 updates");

    // Refactorizing the updated basis clears the eta file and solves the
    // same matrix.
    ASSERT_TRUE(lu.factorize(m, to_matrix(b)));
    EXPECT_EQ(lu.eta_count(), 0);
    expect_solves(lu, b, rng, "refactorized");
  }
}

TEST(BasisLu, UnitRightHandSidesMatchDenseOnes) {
  // A unit right-hand side takes the hypersparse path (its reach is small
  // on this mostly triangular basis); a dense one takes the full pass.  By
  // linearity, solve(e_i) must equal solve(e_i + d) - solve(d).
  for (std::uint64_t seed = 21; seed <= 26; ++seed) {
    Rng rng(seed);
    const int m = 300;
    Dense b = make_basis(m, 4, rng);
    BasisLu lu;
    ASSERT_TRUE(lu.factorize(m, to_matrix(b)));
    for (int round = 0; round < 2; ++round) {
      const std::vector<double> d = random_dense(m, rng);
      std::vector<double> fd = d;
      std::vector<double> bd = d;
      lu.ftran(fd);
      lu.btran(bd);
      const double scale = 1.0 + inf_norm(fd) + inf_norm(bd);
      for (int i = 0; i < m; i += 3) {
        SparseVector unit;
        unit.reset(m);
        unit.set(i, 1.0);
        lu.ftran(unit);
        expect_index_covers(unit);
        std::vector<double> shifted = d;
        shifted[uz(i)] += 1.0;
        lu.ftran(shifted);
        for (int r = 0; r < m; ++r) {
          EXPECT_NEAR(unit.value[uz(r)], shifted[uz(r)] - fd[uz(r)],
                      1e-10 * scale)
              << "ftran e_" << i << " slot " << r;
        }

        unit.clear();
        unit.set(i, 1.0);
        lu.btran(unit);
        expect_index_covers(unit);
        shifted = d;
        shifted[uz(i)] += 1.0;
        lu.btran(shifted);
        for (int r = 0; r < m; ++r) {
          EXPECT_NEAR(unit.value[uz(r)], shifted[uz(r)] - bd[uz(r)],
                      1e-10 * scale)
              << "btran e_" << i << " row " << r;
        }
      }
      // Second round through a non-empty eta file.
      for (int k = 0; k < 16; ++k) ASSERT_TRUE(replace_column(lu, b, rng));
    }
  }
}

TEST(BasisLu, StructurallySingularBasesAreRejected) {
  BasisLu lu;
  // Row 2 is empty: every column avoids it.
  EXPECT_FALSE(lu.factorize(
      3, to_matrix({{1.0, 1.0, 0.0}, {0.0, 1.0, 1.0}, {0.0, 0.0, 0.0}})));
  // Two unit columns on the same row.
  EXPECT_FALSE(lu.factorize(
      3, to_matrix({{1.0, 1.0, 0.0}, {0.0, 0.0, 1.0}, {0.0, 0.0, 2.0}})));
  // An empty column.
  EXPECT_FALSE(lu.factorize(
      3, to_matrix({{1.0, 0.0, 0.0}, {0.0, 0.0, 1.0}, {1.0, 0.0, 2.0}})));
  // Slacks on rows 0 and 1; the other three columns share rows 2 and 3,
  // so the bump is 3 columns on 2 rows.
  Dense b(5, std::vector<double>(5, 0.0));
  b[0][0] = 1.0;
  b[1][1] = 1.0;
  for (int r = 2; r < 5; ++r) {
    b[2][uz(r)] = 1.0 + r;
    b[3][uz(r)] = 2.0 - r;
    b[0][uz(r)] = 0.5;
  }
  EXPECT_FALSE(lu.factorize(5, to_matrix(b)));
  EXPECT_EQ(lu.dimension(), 0);
}

TEST(BasisLu, NumericallySingularBasesAreRejected) {
  BasisLu lu;
  EXPECT_FALSE(lu.factorize(2, to_matrix({{1.0, 1.0}, {1.0, 1.0}})));
  // A random mixed basis whose bump gets one column proportional to
  // another: structurally fine, numerically rank deficient.
  Rng rng(77);
  const int m = 60;
  Dense b = make_basis(m, m / 5, rng);
  int dense_a = -1;
  int dense_b = -1;
  for (int r = 0; r < m && dense_b < 0; ++r) {
    int count = 0;
    for (int i = 0; i < m; ++i) count += b[uz(i)][uz(r)] != 0.0;
    if (count >= 4) (dense_a < 0 ? dense_a : dense_b) = r;
  }
  ASSERT_GE(dense_b, 0);
  ASSERT_TRUE(lu.factorize(m, to_matrix(b)));
  for (int i = 0; i < m; ++i) {
    b[uz(i)][uz(dense_b)] = -3.0 * b[uz(i)][uz(dense_a)];
  }
  EXPECT_FALSE(lu.factorize(m, to_matrix(b)));
}

/// `b` with each completed slot's column replaced by its unit column.
Dense apply_completion(Dense b, const std::vector<Completion>& completed) {
  for (const Completion& c : completed) {
    for (auto& row : b) row[uz(c.slot)] = 0.0;
    b[uz(c.row)][uz(c.slot)] = 1.0;
  }
  return b;
}

TEST(BasisLu, CompletionLeavesNonsingularBasesAlone) {
  Rng rng(31);
  const int m = 50;
  const Dense b = make_basis(m, m / 5, rng);
  BasisLu lu;
  std::vector<Completion> completed{{0, 0}};  // cleared by factorize
  ASSERT_TRUE(lu.factorize(m, to_matrix(b), &completed));
  EXPECT_TRUE(completed.empty());
  expect_solves(lu, b, rng, "nonsingular, completion on");
}

TEST(BasisLu, SingularBasesAreCompletedWithUnitColumns) {
  BasisLu lu;
  Rng rng(41);
  std::vector<Completion> completed;
  // Two unit columns on row 1: one of them cannot pivot, and slot 0
  // pivots only one of rows 0 and 2.
  const Dense twice = {{1.0, 0.0, 0.0}, {0.0, 1.0, 1.0}, {2.0, 0.0, 0.0}};
  ASSERT_TRUE(lu.factorize(3, to_matrix(twice), &completed));
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_NE(completed[0].slot, 0);
  EXPECT_NE(completed[0].row, 1);
  expect_solves(lu, apply_completion(twice, completed), rng, "unit twice");

  // An empty slot and a numerically dependent column at once.
  Dense b = make_basis(40, 8, rng);
  for (auto& row : b) row[3] = 0.0;
  int dense_col = -1;
  for (int r = 0; r < 40 && dense_col < 0; ++r) {
    int count = 0;
    for (int i = 0; i < 40; ++i) count += b[uz(i)][uz(r)] != 0.0;
    if (count >= 3 && r != 3) dense_col = r;
  }
  ASSERT_GE(dense_col, 0);
  const int copy = dense_col == 5 ? 6 : 5;
  for (int i = 0; i < 40; ++i) {
    b[uz(i)][uz(copy)] = 2.0 * b[uz(i)][uz(dense_col)];
  }
  EXPECT_FALSE(lu.factorize(40, to_matrix(b)));
  ASSERT_TRUE(lu.factorize(40, to_matrix(b), &completed));
  ASSERT_EQ(completed.size(), 2u);
  std::set<int> slots;
  std::set<int> rows;
  for (const Completion& c : completed) {
    slots.insert(c.slot);
    rows.insert(c.row);
  }
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_TRUE(slots.count(3));
  EXPECT_TRUE(slots.count(copy) || slots.count(dense_col));
  expect_solves(lu, apply_completion(b, completed), rng, "completed");
}

TEST(BasisLu, TinyUpdatePivotIsRefusedAndFactorsStayUsable) {
  Rng rng(5);
  const int m = 80;
  Dense b = make_basis(m, m / 5, rng);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(m, to_matrix(b)));
  ASSERT_TRUE(replace_column(lu, b, rng));
  ASSERT_EQ(lu.eta_count(), 1);

  SparseVector w;
  w.reset(m);
  w.set(3, 1e-13);
  w.set(10, 1.0);
  w.set(40, -2.0);
  EXPECT_FALSE(lu.update(3, w));
  EXPECT_EQ(lu.eta_count(), 1);
  expect_solves(lu, b, rng, "after a refused update");

  // Further updates still work on top of the unchanged file.
  for (int k = 0; k < 8; ++k) ASSERT_TRUE(replace_column(lu, b, rng));
  expect_solves(lu, b, rng, "after more updates");
}

}  // namespace
