#pragma once
// Sparse LU factorization of a simplex basis with product-form updates.
//
// The revised simplex keeps the m×m basis B implicitly as
//
//     B = (P^T L U Q^T) · E_1 · E_2 · ... · E_k
//
// where P B_0 Q = L U comes from a right-looking sparse factorization and
// each eta matrix E_i = I + (w - e_p) e_p^T records one column replacement
// (w = B_prev^{-1} a_entering).  The eta file grows by one spike per pivot;
// the solver refactorizes (rebuilding L U from the current basis and
// clearing the file) on a configurable interval or when a pivot looks
// numerically degraded.
//
// factorize() exploits the shape of simplex bases, which are mostly slack
// and singleton columns.  A triangular pre-pass pivots every column
// singleton (slacks and artificials among them) on its one remaining row,
// then every row singleton; neither kind does any elimination, and a unit
// column adds nothing to L or U beyond its diagonal.  Only the remaining
// bump is eliminated, by Markowitz ordering with threshold partial pivoting
// over sparse row and column patterns.
//
// ftran and btran are scatter-based triangular solves that skip zero
// steps.  When the right-hand side is sparse (an entering column, or the
// unit vector behind a pivot row) they first compute the steps its
// nonzeros reach (Gilbert–Peierls depth-first search), so their cost
// follows the nonzeros touched rather than m.
//
// Index conventions: "row space" is the model's raw row index i; "slot
// space" is the basis position r (column r of B is the basis column chosen
// for row slot r).  ftran maps row space -> slot space, btran maps slot
// space -> row space.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace omn::lp {

/// The m×m basis in compressed-column form: slot r's entries are
/// (row[e], value[e]) for e in [start[r], start[r + 1]), rows unique.
struct BasisMatrix {
  std::vector<int> start{0};
  std::vector<int> row;
  std::vector<double> value;

  void clear() {
    start.assign(1, 0);
    row.clear();
    value.clear();
  }
  void add(int r, double v) {
    row.push_back(r);
    value.push_back(v);
  }
  /// Closes the current slot's column.
  void end_column() { start.push_back(static_cast<int>(row.size())); }
};

/// A length-m vector stored densely, with the positions that may hold a
/// nonzero listed in `index` (each once; a listed position may hold zero).
/// Every nonzero of `value` must be listed.
struct SparseVector {
  std::vector<double> value;
  std::vector<int> index;

  /// Resizes to m zeros.
  void reset(int m) {
    value.assign(static_cast<std::size_t>(m), 0.0);
    index.clear();
  }
  /// Zeros the listed positions; O(nnz), not O(m).
  void clear() {
    for (int i : index) value[static_cast<std::size_t>(i)] = 0.0;
    index.clear();
  }
  /// Sets position i to v, listing it (i must not be listed yet).
  void set(int i, double v) {
    value[static_cast<std::size_t>(i)] = v;
    index.push_back(i);
  }
};

class BasisLu {
 public:
  /// Factorizes the m×m matrix `b`.  Clears the eta file.  Returns false
  /// when the matrix is structurally or numerically singular, in which case
  /// the factorization must not be used.
  bool factorize(int m, const BasisMatrix& b);

  /// Solves B x = b in place: on entry `x` holds b indexed by raw row, on
  /// exit it holds the solution indexed by basis slot, with `x.index`
  /// updated.
  void ftran(SparseVector& x) const;
  /// The same for a dense vector (its nonzeros are listed first).
  void ftran(std::vector<double>& x) const;

  /// Solves Bᵀ y = c in place: on entry `x` holds c indexed by basis slot,
  /// on exit it holds the solution indexed by raw row.
  void btran(SparseVector& x) const;
  /// The same for a dense vector.
  void btran(std::vector<double>& x) const;

  /// Appends an eta replacing the basis column in slot `slot` with the
  /// entering column whose ftran image is `w` (slot space).  Returns
  /// false — leaving the factorization unchanged — when |w[slot]| is too
  /// small to divide by; the caller must refactorize instead.
  bool update(int slot, const SparseVector& w);

  /// Etas accumulated since the last factorize().
  int eta_count() const { return static_cast<int>(etas_.size()); }

  /// Total successful factorize() calls over the object's lifetime.
  int factorizations() const { return factorizations_; }

  int dimension() const { return m_; }

 private:
  /// A triangular factor as adjacency lists over elimination steps:
  /// step k's entries are (index[e], value[e]) for e in
  /// [start[k], start[k + 1]).
  struct Factor {
    std::vector<int> start;
    std::vector<int> index;
    std::vector<double> value;
    // Running average of recent sparse-input solves' output nonzeros as a
    // share of m: the reach only pays while the result stays sparse.
    mutable double density = 0.0;
  };

  struct Eta {
    int slot = 0;       // replaced basis slot p
    double pivot = 0.0; // w[p]
    int begin = 0;      // range into eta_slot_/eta_val_ (entries with i != p)
    int end = 0;
  };

  // Factorization passes (basis_lu.cpp).
  bool eliminate_singletons(const BasisMatrix& b);
  bool eliminate_bump(const BasisMatrix& b);
  bool find_bump_pivot(int& row, int& col, double& pivot) const;
  void record_step(int row, int slot, double pivot);
  void finish_factors();

  // One triangular solve over step space (basis_lu.cpp).  `nz` lists
  // work_'s possibly nonzero steps on entry and on exit.
  void scatter_pass(const Factor& f, const std::vector<double>* diag,
                    bool ascending, std::vector<int>& nz) const;
  void reach(const Factor& f, const std::vector<int>& seeds) const;
  int next_stamp() const;

  int m_ = 0;
  int factorizations_ = 0;

  // Pivot sequence: step k pivoted raw row step_row_[k] against basis slot
  // step_slot_[k] with pivot diag_[k]; row_step_/slot_step_ invert them.
  std::vector<int> step_row_;
  std::vector<int> step_slot_;
  std::vector<int> row_step_;
  std::vector<int> slot_step_;
  std::vector<double> diag_;

  // P B_0 Q = L U in step space.  L (unit diagonal implicit) by column and
  // by row; U (diagonal in diag_) by row and by column.  Each entry names
  // a later step (L columns, U rows) or an earlier one (L rows, U columns).
  Factor l_col_, l_row_, u_row_, u_col_;

  std::vector<Eta> etas_;
  std::vector<int> eta_slot_;
  std::vector<double> eta_val_;
  // Per slot, bit min(i, 63) is set when eta i has an entry there, so a
  // sparse btran skips the etas that cannot meet its nonzeros.
  std::vector<std::uint64_t> eta_mask_;

  // Factorization scratch, kept for its capacity across refactorizations.
  // Pre-pass: counts of active entries and the row-wise pattern of B (each
  // entry names its position in b).  Bump: live sparse patterns.
  std::vector<int> col_count_, row_count_;
  std::vector<int> b_row_start_, b_row_entry_, b_entry_slot_;
  std::vector<int> pending_;
  std::vector<std::vector<int>> bump_col_rows_;
  std::vector<std::vector<double>> bump_col_vals_;
  std::vector<std::vector<int>> bump_row_cols_;
  std::vector<int> col_head_, col_next_, col_prev_;
  std::vector<int> row_head_, row_next_, row_prev_;
  std::vector<int> where_;  // raw row -> position in a bump column, or -1
  // L entries by raw row and U entries by slot until finish_factors()
  // renumbers them into steps.
  std::vector<int> l_target_, u_target_;

  // Solve scratch.  work_ is step space and all zero between calls.
  mutable std::vector<double> work_;
  mutable std::vector<int> mark_;  // == stamp_ when visited this pass
  mutable int stamp_ = 0;
  mutable std::vector<int> order_, stack_node_, stack_pos_, list_;
};

}  // namespace omn::lp
