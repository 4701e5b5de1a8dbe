// Benchmark cases: one StencilProblem with its seeded input, its scalar
// oracle output and the comparators that run on the same grid.
//
// A Case owns the pristine input and the expected output (computed once
// per process by the scalar references in src/stencil/).  Runs never touch
// either: each run works on a Slot, a private copy that restore() resets
// to the pristine input outside the timed window, and matches() compares
// against the oracle afterwards (bit-identical for f64/i32, <= 4 ULP for
// f32, the exact length for LCS).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "solver/solver.hpp"

namespace tvbench {

namespace solver = tvs::solver;

class Slot {
 public:
  Slot() = default;
  Slot(const Slot&) = delete;
  Slot& operator=(const Slot&) = delete;
  virtual ~Slot() = default;
  virtual void restore() = 0;
  // A non-owning Workload over this slot's storage.
  virtual solver::Workload workload() = 0;
  virtual bool matches(const solver::RunResult& r) const = 0;
};

class Case {
 public:
  Case(std::string name, const solver::StencilProblem& p, double updates)
      : name_(std::move(name)), prob_(p), updates_(updates) {}
  Case(const Case&) = delete;
  Case& operator=(const Case&) = delete;
  virtual ~Case() = default;

  // Family name plus a dtype suffix for single precision ("jacobi2d9_f32").
  const std::string& name() const { return name_; }
  const solver::StencilProblem& problem() const { return prob_; }
  // Points updated by one run (LCS: DP cells).
  double updates() const { return updates_; }

  // A slot refers to this case, which must outlive it.
  virtual std::unique_ptr<Slot> make_slot() const = 0;
  // Runs the scalar reference on a copy of the pristine input.
  virtual void compute_oracle() = 0;
  // Perturbs the expected output so every later match fails (self-check).
  virtual void corrupt_expected() = 0;

  // Comparator kernels (auto, multiload, dlt, tiled-auto, scalar) run on a
  // restored slot; results are not checked against the oracle.
  virtual std::vector<std::string> comparators() const = 0;
  virtual void run_comparator(std::size_t i, Slot& s) const = 0;

 private:
  std::string name_;
  solver::StencilProblem prob_;
  double updates_;
};

// One case request: family, element type, extents and thread count; the
// step count follows from the per-run update target.
struct Spec {
  solver::Family family;
  bool f32 = false;
  int nx = 0, ny = 0, nz = 0;  // LCS: |a| x |b|
  int threads = 0;
};

// Builds the case for `s` with about `updates` point updates per run
// (steps rounded to a multiple of 8; LCS runs its fixed nx x ny table).
// Inputs are drawn from `seed`; threads > 1 picks the parallel comparators.
std::unique_ptr<Case> make_case(const Spec& s, double updates,
                                std::uint64_t seed);

}  // namespace tvbench
