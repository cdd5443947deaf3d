#pragma once

#include <memory>
#include <vector>

#include "linalg/dense.hpp"
#include "linalg/lu.hpp"

/// Modified nodal analysis core for the lookup-table circuit simulator of
/// Sec. 3. Unknowns are the non-ground node voltages followed by the
/// branch currents of voltage sources. The circuits of the paper are small
/// (tens of nodes) and their Jacobians mostly zeros: each workspace records
/// the structural pattern of its stamps and hands it, with the Jacobian, to
/// its linalg::ReplayLU, which orders, factors once densely and replays that
/// factorization on the pattern (see lu.hpp), so one Newton iteration costs
/// O(nonzeros + fill + table samples).
/// Elements stamp at each Newton iterate and commit their state at each
/// accepted point; both analyses (dc.hpp, transient.hpp) drive the one
/// damped Newton loop declared at the end.
namespace gnrfet::circuit {

/// Node handle; 0 is ground.
using NodeId = int;
inline constexpr NodeId kGround = 0;

class Element;
struct TransientContext;

class Circuit {
 public:
  NodeId new_node() { return static_cast<NodeId>(num_nodes_++); }
  size_t num_nodes() const { return num_nodes_; }  ///< includes ground

  /// Adds an element; the circuit assigns branch and state offsets.
  /// Returns a stable element index.
  size_t add(std::unique_ptr<Element> element);

  const std::vector<std::unique_ptr<Element>>& elements() const { return elements_; }

  /// Unknown vector layout: [v_1 .. v_{N-1}, i_branch_0 ..].
  size_t num_unknowns() const;
  size_t num_branches() const { return num_branches_; }
  size_t state_size() const { return state_size_; }

  /// Index of node voltage in the unknown vector (-1 for ground).
  ptrdiff_t unknown_of_node(NodeId n) const { return n == kGround ? -1 : n - 1; }
  /// Voltage of node n in the unknown vector x (0 at ground).
  double voltage(const std::vector<double>& x, NodeId n) const {
    return n == kGround ? 0.0 : x[static_cast<size_t>(unknown_of_node(n))];
  }
  size_t unknown_of_branch(size_t branch) const { return num_nodes() - 1 + branch; }

 private:
  size_t num_nodes_ = 1;  ///< ground
  std::vector<std::unique_ptr<Element>> elements_;
  size_t num_branches_ = 0;
  size_t state_size_ = 0;
};

/// MNA system of one circuit: Jacobian, residual, right-hand side, update
/// and LU factors. Allocated once per solve_dc / run_transient call and
/// reused by every Newton iteration.
///
/// The Jacobian is held in a dense n x n array, but only its structural
/// pattern is ever touched: every position an element has stamped in this
/// workspace, whatever the value, plus the node-row diagonals that take
/// gmin. stamp() zeroes just those entries, so the rest of `jac` stays
/// zero. A stamp outside the pattern joins it; `pattern` only grows, as
/// ReplayLU::factor requires.
struct MnaWorkspace {
  explicit MnaWorkspace(size_t n)
      : jac(n, n), res(n), rhs(n), dx(n), in_pattern(n * n, 0) {}

  /// Zero the pattern entries and the residual, then stamp every element
  /// of `ckt` at iterate `x`.
  void stamp(const Circuit& ckt, const std::vector<double>& x, const TransientContext& ctx);

  /// jac(r, c) += g, recording (r, c) in the pattern.
  void add_jacobian(size_t r, size_t c, double g) {
    const size_t k = r * jac.cols() + c;
    jac.data()[k] += g;
    if (!in_pattern[k]) record(k);
  }
  /// Add flat position k = r * n + c to the pattern.
  void record(size_t k);

  linalg::DMatrix jac;
  std::vector<double> res, rhs, dx;
  std::vector<size_t> pattern;  ///< structural entries r * n + c, ascending
  std::vector<char> in_pattern;  ///< n * n membership mask of `pattern`
  linalg::ReplayLU lu;
};

/// Assembly facade passed to elements. Residuals follow the convention
/// res[node] = sum of currents LEAVING the node (KCL: res = 0).
class Stamper {
 public:
  Stamper(const Circuit& ckt, const std::vector<double>& x, MnaWorkspace& ws)
      : ckt_(ckt), x_(x), ws_(ws) {}

  double v(NodeId n) const { return ckt_.voltage(x_, n); }
  double branch_current(size_t branch) const { return x_[ckt_.unknown_of_branch(branch)]; }

  void add_residual(NodeId n, double current_out) {
    const ptrdiff_t u = ckt_.unknown_of_node(n);
    if (u >= 0) ws_.res[static_cast<size_t>(u)] += current_out;
  }
  void add_branch_residual(size_t branch, double value) {
    ws_.res[ckt_.unknown_of_branch(branch)] += value;
  }
  /// d(res[n]) / d(v[m]).
  void add_jacobian(NodeId n, NodeId m, double g) {
    const ptrdiff_t r = ckt_.unknown_of_node(n);
    const ptrdiff_t c = ckt_.unknown_of_node(m);
    if (r >= 0 && c >= 0) ws_.add_jacobian(static_cast<size_t>(r), static_cast<size_t>(c), g);
  }
  void add_jacobian_node_branch(NodeId n, size_t branch, double g) {
    const ptrdiff_t r = ckt_.unknown_of_node(n);
    if (r >= 0) ws_.add_jacobian(static_cast<size_t>(r), ckt_.unknown_of_branch(branch), g);
  }
  void add_jacobian_branch_node(size_t branch, NodeId m, double g) {
    const ptrdiff_t c = ckt_.unknown_of_node(m);
    if (c >= 0) ws_.add_jacobian(ckt_.unknown_of_branch(branch), static_cast<size_t>(c), g);
  }

 private:
  const Circuit& ckt_;
  const std::vector<double>& x_;
  MnaWorkspace& ws_;
};

/// Contract check of one assembled MNA system (subsystem "circuit"),
/// evaluated over the workspace's pattern (the Jacobian is zero outside
/// it): every Jacobian and residual entry must be finite ("finite-stamp"
/// — an inf/NaN stamp means a degenerate element, e.g. a zero-ohm
/// resistor), and every voltage-source branch row must have at least one
/// nonzero entry ("structural-rank" — an all-zero branch row is a source
/// shorted to itself, which makes the matrix singular no matter the gmin).
/// Node rows may float: the solvers regularize them with gmin by design.
void check_mna_stamp(const Circuit& ckt, const MnaWorkspace& ws);

/// Per-step context for charge-storage elements. dt <= 0 means DC (charge
/// branches are open). `state` holds each element's state as committed at
/// the last accepted point; stamps only read it.
struct TransientContext {
  double time = 0.0;
  double dt = 0.0;
  double source_scale = 1.0;  ///< source stepping homotopy in DC
  const std::vector<double>* state = nullptr;
};

class Element {
 public:
  virtual ~Element() = default;

  /// Number of extra branch-current unknowns (voltage sources).
  virtual size_t num_branches() const { return 0; }
  /// Number of state doubles (charges, previous voltages/currents).
  virtual size_t state_size() const { return 0; }

  /// Called once by Circuit::add.
  void assign_slots(size_t branch_offset, size_t state_offset) {
    branch_offset_ = branch_offset;
    state_offset_ = state_offset;
  }

  /// Stamp residual + Jacobian at iterate x (through `st`). Writes no
  /// state: the committed state is read through `ctx.state`.
  virtual void stamp(Stamper& st, const TransientContext& ctx) const = 0;

  /// Update this element's own slots of `state` in place at the accepted
  /// point `x`. With ctx.dt > 0 a charge branch takes the trapezoidal step
  /// [q, i, v] its stamp at `x` solved for; with ctx.dt <= 0 it starts from
  /// [0, 0, v] (charge is tracked incrementally; no displacement current).
  virtual void commit(const Circuit& /*ckt*/, const std::vector<double>& /*x*/,
                      const TransientContext& /*ctx*/, std::vector<double>& /*state*/) const {}

 protected:
  size_t branch_offset_ = 0;
  size_t state_offset_ = 0;
};

/// Iteration budget, node-update clamp and acceptance test of one Newton
/// solve. The two policies below are the only ones.
struct NewtonPolicy {
  int max_iterations;
  double clamp_V;            ///< largest node-voltage update per iteration
  int clamp_halving_period;  ///< halve the clamp every this many iterations (0: never)
  double update_tol_V;       ///< accept when max node |dx| is below this
  double residual_tol_A;     ///< ... and max |residual| (before the update) too
};

/// DC operating point: the direct solve and each source-stepping rung.
inline constexpr NewtonPolicy kDcNewton{.max_iterations = 200,
                                        .clamp_V = 0.3,
                                        .clamp_halving_period = 0,
                                        .update_tol_V = 1e-10,
                                        .residual_tol_A = 1e-9};
/// One transient time step; the clamp anneals in case Newton cycles.
inline constexpr NewtonPolicy kTransientNewton{.max_iterations = 60,
                                               .clamp_V = 0.3,
                                               .clamp_halving_period = 12,
                                               .update_tol_V = 1e-7,
                                               .residual_tol_A = 1e-10};

/// Damped Newton on the MNA system of `ckt` under `ctx`, updating `x` in
/// place. Each iteration stamps, runs check_mna_stamp, adds a 1e-12 S gmin
/// on the node rows, factors through the workspace's ReplayLU, solves and
/// applies the node-clamped update. Returns
/// true when `policy` accepts an update; false when its iterations run out
/// or the Jacobian is singular. A ContractViolation propagates.
bool newton_solve(const Circuit& ckt, const TransientContext& ctx, const NewtonPolicy& policy,
                  std::vector<double>& x, MnaWorkspace& ws);

}  // namespace gnrfet::circuit
