#include "omn/lp/basis_lu.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstddef>

namespace omn::lp {

namespace {

// Pivots below this absolute magnitude are treated as structural zeros; a
// column whose best remaining pivot falls under it makes the basis singular.
constexpr double kSingularTol = 1e-11;

// Threshold partial pivoting in the bump: an entry may pivot only if it is
// at least this fraction of the largest remaining entry in its column, which
// bounds every L multiplier by 1 / kMarkowitzThreshold.
constexpr double kMarkowitzThreshold = 0.1;

// Bump pivot search: once a candidate exists, look at this many more
// columns or rows before settling (Suhl & Suhl's limited search).
constexpr int kMarkowitzSearch = 4;

// A solve follows its right-hand side's nonzeros (depth-first reach) while
// they, and the factor's recent results for sparse right-hand sides, number
// at most this fraction of m; otherwise it takes the plain ascending or
// descending pass, whose per-step overhead is a single test.
constexpr double kHyperSparseDensity = 0.1;

// Weight of the latest sparse-input solve in a factor's running output
// density.
constexpr double kDensityDecay = 0.2;

std::size_t uz(int v) { return static_cast<std::size_t>(v); }

bool hypersparse(std::size_t nnz, int m) {
  return static_cast<double>(nnz) <= kHyperSparseDensity * m;
}

/// Removes the first occurrence of `v` from `list` (order not kept);
/// returns its former position.
int remove_value(std::vector<int>& list, int v) {
  const auto it = std::find(list.begin(), list.end(), v);
  const int pos = static_cast<int>(it - list.begin());
  *it = list.back();
  list.pop_back();
  return pos;
}

/// Moves `node` to bucket `new_count` of a count-bucket list (head per
/// count, next/prev links); count[node] < 0 means unlinked, and a negative
/// new_count unlinks it.
void relink(std::vector<int>& head, std::vector<int>& next,
            std::vector<int>& prev, std::vector<int>& count, int node,
            int new_count) {
  const std::size_t n = uz(node);
  if (count[n] >= 0) {  // unlink from its current bucket
    if (prev[n] >= 0) {
      next[uz(prev[n])] = next[n];
    } else {
      head[uz(count[n])] = next[n];
    }
    if (next[n] >= 0) prev[uz(next[n])] = prev[n];
  }
  count[n] = new_count;
  if (new_count < 0) return;
  prev[n] = -1;
  next[n] = head[uz(new_count)];
  if (next[n] >= 0) prev[uz(next[n])] = node;
  head[uz(new_count)] = node;
}

}  // namespace

// ---- factorization --------------------------------------------------------

bool BasisLu::factorize(int m, const BasisMatrix& b,
                        std::vector<Completion>* completed) {
  m_ = m;
  step_row_.clear();
  step_slot_.clear();
  diag_.clear();
  row_step_.assign(uz(m), -1);
  slot_step_.assign(uz(m), -1);
  l_col_.start.assign(1, 0);
  l_col_.value.clear();
  l_target_.clear();
  u_row_.start.assign(1, 0);
  u_row_.value.clear();
  u_target_.clear();
  etas_.clear();
  eta_slot_.clear();
  eta_val_.clear();
  eta_mask_.assign(uz(m), 0);
  work_.assign(uz(m), 0.0);
  mark_.assign(uz(m), 0);
  stamp_ = 0;

  if (completed != nullptr) completed->clear();
  complete_ = completed != nullptr;
  const bool eliminated = static_cast<int>(b.start.size()) == m + 1 &&
                          eliminate_singletons(b) && eliminate_bump(b);
  complete_ = false;
  if (eliminated && static_cast<int>(step_row_.size()) == m) {
    finish_factors();
    ++factorizations_;
    return true;
  }
  if (!eliminated || completed == nullptr) {
    m_ = 0;
    return false;
  }
  // Singular, and asked to complete: the pivoted columns are independent
  // and triangular on the pivoted rows, so the unit columns of the rows
  // left over fill the slots left over to a nonsingular basis.  Pair them
  // in ascending order and factorize the completed matrix.
  BasisMatrix full;
  int next_row = 0;
  for (int c = 0; c < m; ++c) {
    if (slot_step_[uz(c)] >= 0) {
      for (int e = b.start[uz(c)]; e < b.start[uz(c) + 1]; ++e) {
        full.add(b.row[uz(e)], b.value[uz(e)]);
      }
    } else {
      while (row_step_[uz(next_row)] >= 0) ++next_row;
      full.add(next_row, 1.0);
      completed->push_back(Completion{c, next_row++});
    }
    full.end_column();
  }
  if (factorize(m, full)) return true;
  completed->clear();
  return false;
}

void BasisLu::record_step(int row, int slot, double pivot) {
  row_step_[uz(row)] = static_cast<int>(step_row_.size());
  slot_step_[uz(slot)] = static_cast<int>(step_row_.size());
  step_row_.push_back(row);
  step_slot_.push_back(slot);
  diag_.push_back(pivot);
  l_col_.start.push_back(static_cast<int>(l_target_.size()));
  u_row_.start.push_back(static_cast<int>(u_target_.size()));
}

/// The triangular pre-pass.  Column singletons first: pivoting one removes
/// only its row, which can leave further columns with one active entry; its
/// U row is the rest of that row and it has no L column.  Then row
/// singletons: pivoting one removes only its column; its L column is the
/// rest of that column and it has no U row.  Neither kind changes any
/// remaining entry, so both read values straight from `b`.
bool BasisLu::eliminate_singletons(const BasisMatrix& b) {
  const int m = m_;
  const int nnz = b.start[uz(m)];
  col_count_.assign(uz(m), 0);
  row_count_.assign(uz(m), 0);
  b_entry_slot_.resize(uz(nnz));
  for (int c = 0; c < m; ++c) {
    col_count_[uz(c)] = b.start[uz(c) + 1] - b.start[uz(c)];
    for (int e = b.start[uz(c)]; e < b.start[uz(c) + 1]; ++e) {
      ++row_count_[uz(b.row[uz(e)])];
      b_entry_slot_[uz(e)] = c;
    }
  }
  // Row-wise pattern of b: row r's entries are b_row_entry_[p] for p in
  // [b_row_start_[r], b_row_start_[r + 1]).
  b_row_start_.assign(uz(m) + 1, 0);
  for (int r = 0; r < m; ++r) {
    b_row_start_[uz(r) + 1] = b_row_start_[uz(r)] + row_count_[uz(r)];
  }
  b_row_entry_.resize(uz(nnz));
  where_.assign(b_row_start_.begin(), b_row_start_.end() - 1);
  for (int e = 0; e < nnz; ++e) {
    b_row_entry_[uz(where_[uz(b.row[uz(e)])]++)] = e;
  }

  pending_.clear();
  for (int c = 0; c < m; ++c) {
    if (col_count_[uz(c)] == 0 && !complete_) return false;
    if (col_count_[uz(c)] == 1) pending_.push_back(c);
  }
  while (!pending_.empty()) {
    const int c = pending_.back();
    pending_.pop_back();
    int r = -1;
    double v = 0.0;
    for (int e = b.start[uz(c)]; e < b.start[uz(c) + 1]; ++e) {
      if (row_step_[uz(b.row[uz(e)])] < 0) {
        r = b.row[uz(e)];
        v = b.value[uz(e)];
        break;
      }
    }
    if (r < 0 || std::abs(v) <= kSingularTol) {
      if (complete_) continue;  // left unpivoted for completion
      return false;
    }
    for (int p = b_row_start_[uz(r)]; p < b_row_start_[uz(r) + 1]; ++p) {
      const int e = b_row_entry_[uz(p)];
      const int c2 = b_entry_slot_[uz(e)];
      if (c2 == c || slot_step_[uz(c2)] >= 0) continue;
      u_target_.push_back(c2);
      u_row_.value.push_back(b.value[uz(e)]);
      // A pending column losing its last active row is structurally empty.
      const int left = --col_count_[uz(c2)];
      if (left == 0 && !complete_) return false;
      if (left == 1) pending_.push_back(c2);
    }
    record_step(r, c, v);
  }

  // No column pivoted above has an entry in a still-active row, so the
  // initial row counts are exactly the active counts.
  for (int r = 0; r < m; ++r) {
    if (row_step_[uz(r)] >= 0) continue;
    if (row_count_[uz(r)] == 1) pending_.push_back(r);
  }
  while (!pending_.empty()) {
    const int r = pending_.back();
    pending_.pop_back();
    int c = -1;
    double v = 0.0;
    for (int p = b_row_start_[uz(r)]; p < b_row_start_[uz(r) + 1]; ++p) {
      const int e = b_row_entry_[uz(p)];
      if (slot_step_[uz(b_entry_slot_[uz(e)])] < 0) {
        c = b_entry_slot_[uz(e)];
        v = b.value[uz(e)];
        break;
      }
    }
    if (c < 0 || std::abs(v) <= kSingularTol) {
      if (complete_) continue;
      return false;
    }
    for (int e = b.start[uz(c)]; e < b.start[uz(c) + 1]; ++e) {
      const int i = b.row[uz(e)];
      if (i == r || row_step_[uz(i)] >= 0) continue;
      l_target_.push_back(i);
      l_col_.value.push_back(b.value[uz(e)] / v);
      const int left = --row_count_[uz(i)];
      if (left == 0 && !complete_) return false;
      if (left == 1) pending_.push_back(i);
    }
    record_step(r, c, v);
  }
  return true;
}

/// Markowitz pivot choice over the bump: the admissible entry (threshold
/// test against its column's largest) with the least (r - 1)(c - 1), where
/// r and c are its row and column counts.  Columns and rows are searched in
/// increasing count; the search stops when no unsearched entry can beat the
/// best cost, or kMarkowitzSearch lists after the first candidate.
bool BasisLu::find_bump_pivot(int& row, int& col, double& pivot) const {
  long long best_cost = LLONG_MAX;
  double best_abs = 0.0;
  int searched = 0;
  auto consider = [&](int i, int c, double a, long long cost) {
    if (cost < best_cost || (cost == best_cost && std::abs(a) > best_abs)) {
      best_cost = cost;
      best_abs = std::abs(a);
      row = i;
      col = c;
      pivot = a;
    }
  };
  auto column_max = [&](int c) {
    double mx = 0.0;
    for (double a : bump_col_vals_[uz(c)]) mx = std::max(mx, std::abs(a));
    return mx;
  };
  row = col = -1;
  for (int cnt = 1; cnt <= m_; ++cnt) {
    const long long cm1 = cnt - 1;
    for (int c = col_head_[uz(cnt)]; c >= 0; c = col_next_[uz(c)]) {
      const double mx = column_max(c);
      if (mx <= kSingularTol) continue;
      const auto& rows = bump_col_rows_[uz(c)];
      const auto& vals = bump_col_vals_[uz(c)];
      for (std::size_t p = 0; p < rows.size(); ++p) {
        if (std::abs(vals[p]) < kMarkowitzThreshold * mx) continue;
        consider(rows[p], c, vals[p], (row_count_[uz(rows[p])] - 1) * cm1);
      }
      if (col >= 0 && ++searched >= kMarkowitzSearch) return true;
    }
    // Unsearched entries now lie in columns of count > cnt.
    if (col >= 0 && best_cost <= cm1 * cnt) return true;
    for (int r = row_head_[uz(cnt)]; r >= 0; r = row_next_[uz(r)]) {
      for (int c : bump_row_cols_[uz(r)]) {
        const auto& rows = bump_col_rows_[uz(c)];
        const double mx = column_max(c);
        if (mx <= kSingularTol) continue;
        const auto at = std::find(rows.begin(), rows.end(), r);
        const double a = bump_col_vals_[uz(c)][uz(
            static_cast<int>(at - rows.begin()))];
        if (std::abs(a) < kMarkowitzThreshold * mx) continue;
        consider(r, c, a, cm1 * (col_count_[uz(c)] - 1));
      }
      if (col >= 0 && ++searched >= kMarkowitzSearch) return true;
    }
    // ... and now also in rows of count > cnt.
    if (col >= 0 && best_cost <= static_cast<long long>(cnt) * cnt) {
      return true;
    }
  }
  return col >= 0;
}

/// Right-looking elimination of what the pre-pass left, on live sparse
/// row/column patterns with count-bucket lists for the pivot search.
bool BasisLu::eliminate_bump(const BasisMatrix& b) {
  const int m = m_;
  if (static_cast<int>(step_row_.size()) == m) return true;

  bump_col_rows_.resize(uz(m));
  bump_col_vals_.resize(uz(m));
  bump_row_cols_.resize(uz(m));
  for (int r = 0; r < m; ++r) bump_row_cols_[uz(r)].clear();
  for (int c = 0; c < m; ++c) {
    if (slot_step_[uz(c)] >= 0) continue;
    auto& rows = bump_col_rows_[uz(c)];
    auto& vals = bump_col_vals_[uz(c)];
    rows.clear();
    vals.clear();
    for (int e = b.start[uz(c)]; e < b.start[uz(c) + 1]; ++e) {
      const int i = b.row[uz(e)];
      if (row_step_[uz(i)] >= 0) continue;
      rows.push_back(i);
      vals.push_back(b.value[uz(e)]);
      bump_row_cols_[uz(i)].push_back(c);
    }
  }
  col_head_.assign(uz(m) + 1, -1);
  row_head_.assign(uz(m) + 1, -1);
  col_next_.assign(uz(m), -1);
  col_prev_.assign(uz(m), -1);
  row_next_.assign(uz(m), -1);
  row_prev_.assign(uz(m), -1);
  for (int c = 0; c < m; ++c) {
    col_count_[uz(c)] = -1;
    if (slot_step_[uz(c)] >= 0) continue;
    relink(col_head_, col_next_, col_prev_, col_count_, c,
           static_cast<int>(bump_col_rows_[uz(c)].size()));
  }
  for (int r = 0; r < m; ++r) {
    row_count_[uz(r)] = -1;
    if (row_step_[uz(r)] >= 0) continue;
    relink(row_head_, row_next_, row_prev_, row_count_, r,
           static_cast<int>(bump_row_cols_[uz(r)].size()));
  }
  where_.assign(uz(m), -1);

  while (static_cast<int>(step_row_.size()) < m) {
    int r = -1;
    int c = -1;
    double v = 0.0;
    // With completion on, what cannot be pivoted is left to factorize().
    if (!find_bump_pivot(r, c, v)) return complete_;
    relink(col_head_, col_next_, col_prev_, col_count_, c, -1);
    relink(row_head_, row_next_, row_prev_, row_count_, r, -1);

    // U row: the pivot row's other entries, taken out of their columns.
    const std::size_t u_begin = u_target_.size();
    for (int c2 : bump_row_cols_[uz(r)]) {
      if (c2 == c) continue;
      auto& rows = bump_col_rows_[uz(c2)];
      auto& vals = bump_col_vals_[uz(c2)];
      const int pos = remove_value(rows, r);
      u_target_.push_back(c2);
      u_row_.value.push_back(vals[uz(pos)]);
      vals[uz(pos)] = vals.back();
      vals.pop_back();
    }
    // L column: the pivot column's other entries over the pivot.
    const std::size_t l_begin = l_target_.size();
    {
      const auto& rows = bump_col_rows_[uz(c)];
      const auto& vals = bump_col_vals_[uz(c)];
      for (std::size_t p = 0; p < rows.size(); ++p) {
        if (rows[p] == r) continue;
        l_target_.push_back(rows[p]);
        l_col_.value.push_back(vals[p] / v);
        remove_value(bump_row_cols_[uz(rows[p])], c);
      }
    }
    // Schur complement: column c2 -= u * l, with fill appended.
    for (std::size_t ue = u_begin; ue < u_target_.size(); ++ue) {
      const int c2 = u_target_[ue];
      const double u = u_row_.value[ue];
      auto& rows = bump_col_rows_[uz(c2)];
      auto& vals = bump_col_vals_[uz(c2)];
      for (std::size_t p = 0; p < rows.size(); ++p) {
        where_[uz(rows[p])] = static_cast<int>(p);
      }
      for (std::size_t le = l_begin; le < l_target_.size(); ++le) {
        const int i = l_target_[le];
        const double delta = l_col_.value[le] * u;
        if (where_[uz(i)] >= 0) {
          vals[uz(where_[uz(i)])] -= delta;
        } else {
          rows.push_back(i);
          vals.push_back(-delta);
          bump_row_cols_[uz(i)].push_back(c2);
        }
      }
      for (int i : rows) where_[uz(i)] = -1;
      relink(col_head_, col_next_, col_prev_, col_count_, c2,
             static_cast<int>(rows.size()));
    }
    for (std::size_t le = l_begin; le < l_target_.size(); ++le) {
      const int i = l_target_[le];
      relink(row_head_, row_next_, row_prev_, row_count_, i,
             static_cast<int>(bump_row_cols_[uz(i)].size()));
    }
    bump_col_rows_[uz(c)].clear();
    bump_col_vals_[uz(c)].clear();
    bump_row_cols_[uz(r)].clear();
    record_step(r, c, v);
  }
  return true;
}

namespace {

/// t = transpose of f over n steps (entries of each t list in ascending
/// source step).
template <class F>
void transpose(const F& f, F& t, int n) {
  t.start.assign(std::size_t(n) + 1, 0);
  for (int k : f.index) ++t.start[uz(k) + 1];
  for (int k = 0; k < n; ++k) t.start[uz(k) + 1] += t.start[uz(k)];
  t.index.resize(f.index.size());
  t.value.resize(f.value.size());
  std::vector<int> at(t.start.begin(), t.start.end() - 1);
  for (int k = 0; k < n; ++k) {
    for (int e = f.start[uz(k)]; e < f.start[uz(k) + 1]; ++e) {
      const int p = at[uz(f.index[uz(e)])]++;
      t.index[uz(p)] = k;
      t.value[uz(p)] = f.value[uz(e)];
    }
  }
}

}  // namespace

void BasisLu::finish_factors() {
  l_col_.index.resize(l_target_.size());
  for (std::size_t e = 0; e < l_target_.size(); ++e) {
    l_col_.index[e] = row_step_[uz(l_target_[e])];
  }
  u_row_.index.resize(u_target_.size());
  for (std::size_t e = 0; e < u_target_.size(); ++e) {
    u_row_.index[e] = slot_step_[uz(u_target_[e])];
  }
  transpose(l_col_, l_row_, m_);
  transpose(u_row_, u_col_, m_);
}

// ---- solves ---------------------------------------------------------------

int BasisLu::next_stamp() const {
  if (stamp_ == INT_MAX) {
    std::fill(mark_.begin(), mark_.end(), 0);
    stamp_ = 0;
  }
  return ++stamp_;
}

/// Gilbert–Peierls: the steps reachable from `seeds` along f's entries, in
/// topological order (every step before the steps its entries name), into
/// order_.  Iterative depth-first search; reverse postorder.
void BasisLu::reach(const Factor& f, const std::vector<int>& seeds) const {
  const int stamp = next_stamp();
  order_.clear();
  for (int s : seeds) {
    if (mark_[uz(s)] == stamp) continue;
    mark_[uz(s)] = stamp;
    stack_node_.push_back(s);
    stack_pos_.push_back(f.start[uz(s)]);
    while (!stack_node_.empty()) {
      const int k = stack_node_.back();
      const int p = stack_pos_.back();
      if (p < f.start[uz(k) + 1]) {
        stack_pos_.back() = p + 1;
        const int i = f.index[uz(p)];
        if (mark_[uz(i)] != stamp) {
          mark_[uz(i)] = stamp;
          stack_node_.push_back(i);
          stack_pos_.push_back(f.start[uz(i)]);
        }
      } else {
        order_.push_back(k);
        stack_node_.pop_back();
        stack_pos_.pop_back();
      }
    }
  }
  std::reverse(order_.begin(), order_.end());
}

/// Solves with one triangular factor in work_: for each step k in order,
/// y_k /= diag_k (when given), then y_i -= f_ki · y_k over k's entries.
/// With a sparse enough list the order is the list's reach; otherwise it is
/// every step, ascending or descending, collecting the nonzeros.
void BasisLu::scatter_pass(const Factor& f, const std::vector<double>* diag,
                           bool ascending, std::vector<int>& nz) const {
  double* y = work_.data();
  auto step = [&](int k) {
    double t = y[k];
    if (t == 0.0) return;
    if (diag != nullptr) {
      t /= (*diag)[uz(k)];
      y[k] = t;
    }
    for (int e = f.start[uz(k)]; e < f.start[uz(k) + 1]; ++e) {
      y[f.index[uz(e)]] -= f.value[uz(e)] * t;
    }
  };
  const bool sparse_input = hypersparse(nz.size(), m_);
  if (sparse_input && f.density <= kHyperSparseDensity) {
    reach(f, nz);
    for (int k : order_) step(k);
    nz.swap(order_);
  } else {
    nz.clear();
    auto visit = [&](int k) {
      step(k);
      if (y[k] != 0.0) nz.push_back(k);
    };
    if (ascending) {
      for (int k = 0; k < m_; ++k) visit(k);
    } else {
      for (int k = m_ - 1; k >= 0; --k) visit(k);
    }
  }
  if (sparse_input) {
    f.density = (1.0 - kDensityDecay) * f.density +
                kDensityDecay * static_cast<double>(nz.size()) / m_;
  }
}

namespace {

/// Runs a SparseVector solve on the dense vector x, listing its nonzeros.
template <class Solve>
void solve_dense(std::vector<double>& x, Solve solve) {
  SparseVector v;
  v.value.swap(x);
  for (std::size_t i = 0; i < v.value.size(); ++i) {
    if (v.value[i] != 0.0) v.index.push_back(static_cast<int>(i));
  }
  solve(v);
  x.swap(v.value);
}

}  // namespace

void BasisLu::ftran(std::vector<double>& x) const {
  solve_dense(x, [this](SparseVector& v) { ftran(v); });
}

void BasisLu::btran(std::vector<double>& x) const {
  solve_dense(x, [this](SparseVector& v) { btran(v); });
}

void BasisLu::ftran(SparseVector& x) const {
  // Row space -> step space, keeping the list.
  list_.clear();
  auto load = [&](int i) {
    const double v = x.value[uz(i)];
    if (v == 0.0) return;
    x.value[uz(i)] = 0.0;
    work_[uz(row_step_[uz(i)])] = v;
    list_.push_back(row_step_[uz(i)]);
  };
  if (hypersparse(x.index.size(), m_)) {
    for (int i : x.index) load(i);
  } else {
    for (int i = 0; i < m_; ++i) load(i);
  }
  // B = P^T L U Q^T E_1 ... E_k, so
  // x = E_k^{-1} ... E_1^{-1} Q U^{-1} L^{-1} P b.
  scatter_pass(l_col_, nullptr, /*ascending=*/true, list_);
  scatter_pass(u_col_, &diag_, /*ascending=*/false, list_);
  x.index.clear();
  for (int k : list_) {
    const double v = work_[uz(k)];
    if (v == 0.0) continue;
    work_[uz(k)] = 0.0;
    x.set(step_slot_[uz(k)], v);
  }
  if (etas_.empty()) return;

  // Eta sweep in append order: x <- E_i^{-1} x, where E^{-1} divides the
  // spiked slot and back-substitutes it out of the others.
  if (!hypersparse(x.index.size(), m_)) {
    // Dense enough that listing as we go costs more than a final scan.
    for (const Eta& eta : etas_) {
      const double t = x.value[uz(eta.slot)] / eta.pivot;
      if (t == 0.0) continue;
      for (int e = eta.begin; e < eta.end; ++e) {
        x.value[uz(eta_slot_[uz(e)])] -= eta_val_[uz(e)] * t;
      }
      x.value[uz(eta.slot)] = t;
    }
    x.index.clear();
    for (int s = 0; s < m_; ++s) {
      if (x.value[uz(s)] != 0.0) x.index.push_back(s);
    }
    return;
  }
  const int stamp = next_stamp();
  for (int s : x.index) mark_[uz(s)] = stamp;
  for (const Eta& eta : etas_) {
    const double t = x.value[uz(eta.slot)] / eta.pivot;
    if (t == 0.0) continue;  // x[slot] was zero, and stays so
    for (int e = eta.begin; e < eta.end; ++e) {
      const int s = eta_slot_[uz(e)];
      x.value[uz(s)] -= eta_val_[uz(e)] * t;
      if (mark_[uz(s)] != stamp) {
        mark_[uz(s)] = stamp;
        x.index.push_back(s);
      }
    }
    x.value[uz(eta.slot)] = t;
  }
}

void BasisLu::btran(SparseVector& x) const {
  // Bᵀ = E_k^T ... E_1^T Q U^T L^T P, so y = P^T L^{-T} U^{-T} Q^T E_1^{-T}
  // ... E_k^{-T} c.
  if (!etas_.empty()) {
    // E_i^{-T} sets x[p_i] = (x[p_i] - eta_i · x) / pivot_i, newest first.
    // An eta whose mask bit no nonzero of x carries has a zero product.
    const int stamp = next_stamp();
    std::uint64_t reach = 0;
    for (int s : x.index) {
      mark_[uz(s)] = stamp;
      if (x.value[uz(s)] != 0.0) reach |= eta_mask_[uz(s)];
    }
    for (int i = eta_count() - 1; i >= 0; --i) {
      const Eta& eta = etas_[uz(i)];
      if (((reach >> std::min(i, 63)) & 1u) == 0) {
        if (x.value[uz(eta.slot)] != 0.0) {
          x.value[uz(eta.slot)] /= eta.pivot;
        }
        continue;
      }
      double acc = x.value[uz(eta.slot)];
      for (int e = eta.begin; e < eta.end; ++e) {
        acc -= eta_val_[uz(e)] * x.value[uz(eta_slot_[uz(e)])];
      }
      const double t = acc / eta.pivot;
      x.value[uz(eta.slot)] = t;
      if (t == 0.0) continue;
      reach |= eta_mask_[uz(eta.slot)];
      if (mark_[uz(eta.slot)] != stamp) {
        mark_[uz(eta.slot)] = stamp;
        x.index.push_back(eta.slot);
      }
    }
  }
  // Slot space -> step space, keeping the list.
  list_.clear();
  auto load = [&](int s) {
    const double v = x.value[uz(s)];
    if (v == 0.0) return;
    x.value[uz(s)] = 0.0;
    work_[uz(slot_step_[uz(s)])] = v;
    list_.push_back(slot_step_[uz(s)]);
  };
  if (hypersparse(x.index.size(), m_)) {
    for (int s : x.index) load(s);
  } else {
    for (int s = 0; s < m_; ++s) load(s);
  }
  scatter_pass(u_row_, &diag_, /*ascending=*/true, list_);
  scatter_pass(l_row_, nullptr, /*ascending=*/false, list_);
  x.index.clear();
  for (int k : list_) {
    const double v = work_[uz(k)];
    if (v == 0.0) continue;
    work_[uz(k)] = 0.0;
    x.set(step_row_[uz(k)], v);
  }
}

bool BasisLu::update(int slot, const SparseVector& w) {
  const double pivot = w.value[uz(slot)];
  if (std::abs(pivot) < kSingularTol) return false;
  Eta eta;
  eta.slot = slot;
  eta.pivot = pivot;
  eta.begin = static_cast<int>(eta_slot_.size());
  const std::uint64_t bit = std::uint64_t{1} << std::min(eta_count(), 63);
  for (int i : w.index) {
    const double v = w.value[uz(i)];
    if (i == slot || v == 0.0) continue;
    eta_slot_.push_back(i);
    eta_val_.push_back(v);
    eta_mask_[uz(i)] |= bit;
  }
  eta.end = static_cast<int>(eta_slot_.size());
  etas_.push_back(eta);
  return true;
}

}  // namespace omn::lp
