#pragma once
// Two-phase primal simplex for linear programs with bounded variables.
//
// This is the LP substrate the paper's algorithm sits on (Section 2: "We
// solve the LP to optimality and find a fractional solution").
//
// SimplexSolver is the one production core: a revised simplex that keeps
// A column- and row-compressed, maintains the basis as a sparse LU
// factorization (lp::BasisLu) with product-form (eta-file) updates and
// periodic refactorization, and solves B·w = a_q / Bᵀ·ρ = e_r by
// substitution that follows the right-hand side's nonzeros.  Per-pivot
// work is proportional to the nonzeros touched, not to the full tableau,
// which is what the overlay LPs' extreme sparsity rewards.  It prices
// Devex-style steepest edge with reference-framework weight updates
// (lp::Pricer).
//
// solve_dense_reference() runs the original dense full-tableau core on
// the same standard form.  It is a test and benchmark reference only
// (the differential suite and E14's `dense` row): it always prices
// Dantzig (with the Bland switch), so its pivot sequences are bit-stable.
//
// Shared mechanics (identical standard form in both cores):
//
//  - every row is normalized to `Ax <= b` (>= rows are negated; == rows get
//    a slack fixed to [0,0]) and given a slack in [0, +inf);
//  - rows whose slack cannot absorb the initial residual get an artificial
//    variable; phase I minimizes the sum of artificials;
//  - variables may sit nonbasic at either bound; bound flips are handled
//    without a basis change (Chvatal ch. 8 upper-bounding technique);
//  - an automatic switch to Bland's rule after a run of degenerate pivots
//    guarantees termination.
//
// Optimal solves export their final basis (`Solution::basis`); the revised
// core accepts one back via `SolveOptions::warm_start_basis`.  It has one
// start path: install a basis (the offered one, else the all-slack basis),
// then repair it — every basic variable out of its bounds moves to the
// bound it violates and a signed copy of its column takes its slot as an
// artificial carrying the violation.  On the all-slack basis those are the
// textbook unit artificials of the rows above, so a cold solve is the
// classic two-phase method; an offered basis that stays primal feasible
// skips phase I entirely, and one that does not runs phase I from where
// it is.  An offered basis with empty slots or dependent columns is
// completed with slacks first (BasisLu), and a warm solve that breaks
// down numerically is re-solved cold.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "omn/lp/model.hpp"

namespace omn::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

std::string to_string(SolveStatus status);

// Tolerances both cores share.  They are constants, not options; the LP
// cache key still hashes them so an edit here invalidates stale entries.

/// Reduced-cost optimality tolerance.
inline constexpr double kOptimalityTol = 1e-9;
/// Feasibility tolerance for phase-I residual and final checks.
inline constexpr double kFeasibilityTol = 1e-7;
/// Minimum admissible pivot magnitude.
inline constexpr double kPivotTol = 1e-8;
/// Consecutive degenerate pivots before switching to Bland's rule.
inline constexpr int kDegenerateSwitch = 64;

/// Per-column simplex status in an exported basis.
enum class VarStatus : std::uint8_t {
  kAtLower = 0,
  kAtUpper = 1,
  kBasic = 2,
};

/// A `Basis::basic` entry naming no column.  Only offered bases hold it
/// (remap_basis leaves a slot empty when no column of the old basis fits
/// it); the solver fills the slot with the slack of a row the other basic
/// columns leave unpivoted.
inline constexpr std::int32_t kEmptySlot = -1;

/// A complete simplex basis over the standard form's n structural + m slack
/// columns (artificials are never exported).  `state[j]` gives column j's
/// status; `basic[r]` the column basic in row r, or kEmptySlot.  A Basis is
/// only meaningful for a model with matching dimensions — importers
/// validate and fall back to a cold start on any mismatch.
struct Basis {
  std::vector<VarStatus> state;  ///< size n + m: structural, then slacks
  std::vector<std::int32_t> basic;  ///< size m: column basic in row r

  bool operator==(const Basis&) const = default;
};

/// The names of a model's structural columns and rows, in index order:
/// the keys remap_basis matches columns and rows on.
struct BasisKeys {
  std::vector<std::string> columns;
  std::vector<std::string> rows;

  /// The variable and row names of `model`.
  static BasisKeys of(const Model& model);
};

/// Carries `basis`, exported for the model that `from` names, over to the
/// model that `to` names, matching columns and rows by key (the first of
/// duplicate keys wins).  Columns kept by key keep their status; new
/// columns start at their lower bound.  The slot of a kept row keeps its
/// basic column when that column survived, and a new row's slot starts
/// with the row's slack basic.  A surviving basic column whose row was
/// removed takes the first free slot (or goes to its lower bound when none
/// is left).  Slots still free — a removed basic column's — stay
/// kEmptySlot: which rows need a slack there depends on the numbers, so
/// the solver's completion chooses them.  The result may also be primal
/// infeasible; the solver repairs it.  Throws std::invalid_argument when
/// `basis` does not fit `from`.
Basis remap_basis(const Basis& basis, const BasisKeys& from,
                  const BasisKeys& to);

struct SolveOptions {
  /// 0 = automatic: max(20000, 60 * (rows + vars)).
  int max_iterations = 0;
  /// Eta updates accumulated before the revised core refactorizes the basis
  /// LU (numeric drift triggers an early refactorization regardless).
  /// Values < 1 behave as 1.
  int refactor_interval = 64;
  /// Optional starting basis for the revised core (ignored by the dense
  /// reference).  A basis of the wrong shape or an inconsistent one is
  /// ignored (cold start).  Any other is used: empty slots and a singular
  /// basis are completed with slacks, a primal-infeasible basis is repaired
  /// with artificials for a phase I that starts from it, and a feasible one
  /// skips phase I.
  std::optional<Basis> warm_start_basis;

  /// The solver is deterministic, so equal options (and an equal model)
  /// produce the same Solution — used by LP-memoizing callers.
  bool operator==(const SolveOptions&) const = default;
};

struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  /// Objective value c.x (minimization) of the returned point.
  double objective = 0.0;
  /// Primal values for the model's structural variables.
  std::vector<double> x;
  /// Total simplex pivots (both phases).
  int iterations = 0;
  /// Pivots spent in phase I.
  int phase1_iterations = 0;
  /// max constraint/bound violation of the returned point, as measured by
  /// Model::max_infeasibility (diagnostic; ~1e-9 for healthy solves).
  double max_violation = 0.0;
  /// Basis LU refactorizations performed (0 for the dense reference).
  int refactorizations = 0;
  /// True when the solve started from SolveOptions::warm_start_basis
  /// (i.e. the basis was accepted, not merely supplied).  False after a
  /// warm attempt broke down numerically and the solve was redone cold;
  /// iterations and refactorizations then include the abandoned attempt.
  bool warm_started = false;
  /// Final basis of an optimal solve, exported unless an artificial column
  /// remained basic (degenerate equality rows).  Feed back through
  /// SolveOptions::warm_start_basis to re-solve perturbed instances.
  std::optional<Basis> basis;

  bool optimal() const { return status == SolveStatus::kOptimal; }
};

class SimplexSolver {
 public:
  /// Solves `model` (minimization).  The model is not modified.
  Solution solve(const Model& model, const SolveOptions& options = {}) const;
};

/// Solves `model` with the dense full-tableau reference core.  Only tests
/// and E14 call it: it is the oracle the revised core is checked against,
/// never a production path.  Honours the iteration limit; ignores
/// refactor_interval and warm_start_basis, and exports no refactorization
/// count.
Solution solve_dense_reference(const Model& model,
                               const SolveOptions& options = {});

}  // namespace omn::lp
