#include "cases.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <random>
#include <span>
#include <type_traits>
#include <utility>

#include "baseline/autovec.hpp"
#include "baseline/spatial.hpp"
#include "solver/builder.hpp"
#include "stencil/lcs_ref.hpp"
#include "stencil/life_ref.hpp"
#include "stencil/reference1d.hpp"
#include "stencil/reference2d.hpp"
#include "stencil/reference3d.hpp"
#include "tiling/diamond.hpp"
#include "tiling/diamond2d.hpp"
#include "tiling/diamond3d.hpp"
#include "tiling/lcs_wavefront.hpp"
#include "tiling/parallelogram.hpp"
#include "tiling/parallelogram2d.hpp"

namespace tvbench {

namespace {

using namespace tvs;
using solver::Family;

// ---- grid plumbing: every stored line, halo included ----------------------

// Calls f(a_line, b_line, n) for every stored line of two same-shape grids.
template <class A, class B, class F>
void lines(A& a, B& b, F f) {
  if constexpr (requires { a.nz(); }) {
    for (int x = 0; x <= a.nx() + 1; ++x) {
      for (int y = 0; y <= a.ny() + 1; ++y) {
        f(&a.at(x, y, 0), &b.at(x, y, 0), static_cast<std::size_t>(a.nz() + 2));
      }
    }
  } else if constexpr (requires { a.ny(); }) {
    for (int x = 0; x <= a.nx() + 1; ++x) {
      f(&a.at(x, 0), &b.at(x, 0), static_cast<std::size_t>(a.ny() + 2));
    }
  } else {
    f(&a.at(0), &b.at(0), static_cast<std::size_t>(a.nx() + 2));
  }
}

template <class T>
grid::Grid1D<T> like(const grid::Grid1D<T>& g) {
  return grid::Grid1D<T>(g.nx());
}
template <class T>
grid::Grid2D<T> like(const grid::Grid2D<T>& g) {
  return grid::Grid2D<T>(g.nx(), g.ny());
}
template <class T>
grid::Grid3D<T> like(const grid::Grid3D<T>& g) {
  return grid::Grid3D<T>(g.nx(), g.ny(), g.nz());
}

template <class G>
void copy_into(G& dst, const G& src) {
  lines(dst, src, [](auto* d, const auto* s, std::size_t n) {
    std::memcpy(d, s, n * sizeof(*d));
  });
}

// Distance in units in the last place between two floats of either sign.
inline std::int64_t ulp_key(float v) {
  std::int32_t i;
  std::memcpy(&i, &v, sizeof i);
  return i < 0 ? static_cast<std::int64_t>(INT32_MIN) - i : i;
}

template <class G>
bool same(const G& expected, const G& got) {
  bool ok = true;
  lines(got, expected, [&](const auto* g, const auto* e, std::size_t n) {
    using T = std::remove_cv_t<std::remove_pointer_t<decltype(g)>>;
    if (!ok) return;
    if constexpr (std::is_same_v<T, float>) {
      for (std::size_t i = 0; i < n && ok; ++i) {
        ok = std::llabs(ulp_key(g[i]) - ulp_key(e[i])) <= 4;
      }
    } else {
      ok = std::memcmp(g, e, n * sizeof(T)) == 0;
    }
  });
  return ok;
}

template <class G>
auto& first_cell(G& g) {
  if constexpr (requires { g.nz(); }) {
    return g.at(1, 1, 1);
  } else if constexpr (requires { g.ny(); }) {
    return g.at(1, 1);
  } else {
    return g.at(1);
  }
}

// ---- grid-payload cases ----------------------------------------------------

template <class C, class G>
class GridCase final : public Case {
 public:
  using Kernel = std::function<void(const C&, G&, long)>;

  GridCase(std::string name, const solver::StencilProblem& p, double updates,
           const C& c, G pristine, Kernel oracle,
           std::vector<std::pair<std::string, Kernel>> comps)
      : Case(std::move(name), p, updates),
        c_(c),
        pristine_(std::move(pristine)),
        oracle_(std::move(oracle)),
        comps_(std::move(comps)) {}

  std::unique_ptr<Slot> make_slot() const override {
    return std::make_unique<GSlot>(*this);
  }
  void compute_oracle() override {
    expected_ = like(pristine_);
    copy_into(expected_, pristine_);
    oracle_(c_, expected_, problem().steps);
  }
  void corrupt_expected() override { first_cell(expected_) += 1; }

  std::vector<std::string> comparators() const override {
    std::vector<std::string> out;
    for (const auto& [name, fn] : comps_) out.push_back(name);
    return out;
  }
  void run_comparator(std::size_t i, Slot& s) const override {
    comps_[i].second(c_, static_cast<GSlot&>(s).work, problem().steps);
  }

 private:
  struct GSlot final : Slot {
    explicit GSlot(const GridCase& owner) : c(owner), work(like(owner.pristine_)) {}
    void restore() override { copy_into(work, c.pristine_); }
    solver::Workload workload() override { return solver::Workload(c.c_, work); }
    bool matches(const solver::RunResult&) const override {
      return same(c.expected_, work);
    }
    const GridCase& c;
    G work;
  };

  C c_;
  G pristine_;
  G expected_;
  Kernel oracle_;
  std::vector<std::pair<std::string, Kernel>> comps_;
};

// ---- LCS -------------------------------------------------------------------

class LcsCase final : public Case {
 public:
  LcsCase(const solver::StencilProblem& p, std::vector<std::int32_t> a,
          std::vector<std::int32_t> b, const solver::ExecutionPlan& plan)
      : Case("lcs", p, static_cast<double>(p.nx) * p.ny),
        a_(std::move(a)),
        b_(std::move(b)),
        tiled_(p.threads > 1) {
    opt_.block = plan.tile_w;
    opt_.band = plan.tile_h;
    opt_.use_vector = false;
  }

  std::unique_ptr<Slot> make_slot() const override {
    return std::make_unique<LSlot>(*this);
  }
  void compute_oracle() override { expected_ = stencil::lcs_ref(a_, b_); }
  void corrupt_expected() override { expected_ += 1; }

  std::vector<std::string> comparators() const override {
    return {tiled_ ? "tiled-auto" : "scalar"};
  }
  void run_comparator(std::size_t, Slot&) const override {
    static_cast<void>(tiled_ ? tiling::lcs_wavefront(a_, b_, opt_)
                             : stencil::lcs_ref(a_, b_));
  }

 private:
  struct LSlot final : Slot {
    explicit LSlot(const LcsCase& owner) : c(owner) {}
    void restore() override {}
    solver::Workload workload() override {
      return solver::Workload(std::span<const std::int32_t>(c.a_),
                              std::span<const std::int32_t>(c.b_));
    }
    bool matches(const solver::RunResult& r) const override {
      return r.lcs_length == c.expected_;
    }
    const LcsCase& c;
  };

  std::vector<std::int32_t> a_, b_;
  std::int32_t expected_ = -1;
  bool tiled_;
  tiling::LcsWavefrontOptions opt_;
};

// ---- per-family wiring -----------------------------------------------------

template <class C, class G>
using Comps = std::vector<std::pair<std::string, typename GridCase<C, G>::Kernel>>;

// Tiled comparator options: the planned tiling with scalar tiles.
template <class O>
O scalar_tiles(const solver::ExecutionPlan& plan) {
  O o;
  o.width = plan.tile_w;
  o.height = plan.tile_h;
  o.stride = plan.stride;
  o.use_vector = false;
  return o;
}

template <class C, class G>
std::unique_ptr<Case> grid_case(const std::string& name,
                                const solver::StencilProblem& p, double upd,
                                const C& c, G g, void (*oracle)(const C&, G&, long),
                                Comps<C, G> comps) {
  if (comps.empty()) comps.emplace_back("scalar", oracle);
  return std::make_unique<GridCase<C, G>>(name, p, upd, c, std::move(g), oracle,
                                          std::move(comps));
}

}  // namespace

std::unique_ptr<Case> make_case(const Spec& s, double updates,
                                std::uint64_t seed) {
  const int dim = solver::family_dim(s.family);
  const bool lcs = s.family == Family::kLcs;
  const double points = static_cast<double>(s.nx) * (dim > 1 ? s.ny : 1) *
                        (dim > 2 ? s.nz : 1);
  const long steps =
      lcs ? 0 : std::max(8L, 8 * std::lround(updates / points / 8.0));

  solver::ProblemBuilder b(s.family);
  if (dim == 1) b.extents(s.nx);
  if (dim == 2) b.extents(s.nx, s.ny);
  if (dim == 3) b.extents(s.nx, s.ny, s.nz);
  const solver::StencilProblem p =
      b.steps(steps)
          .threads(s.threads)
          .dtype(s.f32 ? dispatch::DType::kF32 : dispatch::DType::kF64)
          .build();
  const solver::ExecutionPlan plan = solver::heuristic_plan(p);
  const bool tiled = s.threads > 1;
  const double upd = points * static_cast<double>(std::max(steps, 1L));
  const std::string name =
      std::string(solver::family_name(s.family)) + (s.f32 ? "_f32" : "");

  std::mt19937_64 rng(seed);
  auto fp = [&](auto g) {
    g.fill_random(rng, 0, 1);
    return g;
  };
  using D1 = grid::Grid1D<double>;
  using D2 = grid::Grid2D<double>;
  using D3 = grid::Grid3D<double>;
  using I2 = grid::Grid2D<std::int32_t>;
  using F2 = grid::Grid2D<float>;

  switch (s.family) {
    case Family::kJacobi1D3: {
      const stencil::C1D3 c = stencil::heat1d(0.25);
      Comps<stencil::C1D3, D1> comps;
      if (tiled) {
        comps = {{"auto", baseline::par_autovec_jacobi1d3_run},
                 {"tiled-auto", [o = scalar_tiles<tiling::Diamond1DOptions>(plan)](
                                    const auto& cc, auto& u, long n) {
                    tiling::diamond_jacobi1d3_run(cc, u, n, o);
                  }}};
      } else {
        comps = {{"auto", baseline::autovec_jacobi1d3_run},
                 {"multiload", baseline::multiload_jacobi1d3_run},
                 {"dlt", baseline::dlt_jacobi1d3_run}};
      }
      return grid_case(name, p, upd, c, fp(D1(s.nx)),
                       &stencil::jacobi1d3_run<double>, std::move(comps));
    }
    case Family::kJacobi1D5: {
      const stencil::C1D5 c = stencil::heat1d5(0.2);
      return grid_case(name, p, upd, c, fp(D1(s.nx)),
                       &stencil::jacobi1d5_run<double>,
                       {{"auto", baseline::autovec_jacobi1d5_run}});
    }
    case Family::kJacobi2D5: {
      const stencil::C2D5 c = stencil::heat2d(0.125);
      Comps<stencil::C2D5, D2> comps;
      if (tiled) {
        comps = {{"auto", baseline::par_autovec_jacobi2d5_run},
                 {"tiled-auto", [o = scalar_tiles<tiling::Diamond2DOptions>(plan)](
                                    const auto& cc, auto& u, long n) {
                    tiling::diamond_jacobi2d5_run(cc, u, n, o);
                  }}};
      } else {
        comps = {{"auto", baseline::autovec_jacobi2d5_run},
                 {"multiload", baseline::multiload_jacobi2d5_run}};
      }
      return grid_case(name, p, upd, c, fp(D2(s.nx, s.ny)),
                       &stencil::jacobi2d5_run<double>, std::move(comps));
    }
    case Family::kJacobi2D9: {
      if (s.f32) {
        const stencil::C2D9f c = stencil::box2d9<float>(0.1);
        return grid_case(name, p, upd, c, fp(F2(s.nx, s.ny)),
                         &stencil::jacobi2d9_run<float>, {});
      }
      const stencil::C2D9 c = stencil::box2d9(0.1);
      Comps<stencil::C2D9, D2> comps;
      if (tiled) {
        comps = {{"auto", baseline::par_autovec_jacobi2d9_run},
                 {"tiled-auto", [o = scalar_tiles<tiling::Diamond2DOptions>(plan)](
                                    const auto& cc, auto& u, long n) {
                    tiling::diamond_jacobi2d9_run(cc, u, n, o);
                  }}};
      } else {
        comps = {{"auto", baseline::autovec_jacobi2d9_run},
                 {"multiload", baseline::multiload_jacobi2d9_run}};
      }
      return grid_case(name, p, upd, c, fp(D2(s.nx, s.ny)),
                       &stencil::jacobi2d9_run<double>, std::move(comps));
    }
    case Family::kJacobi3D7: {
      const stencil::C3D7 c = stencil::heat3d(0.1);
      Comps<stencil::C3D7, D3> comps;
      if (tiled) {
        comps = {{"auto", baseline::par_autovec_jacobi3d7_run},
                 {"tiled-auto", [o = scalar_tiles<tiling::Diamond3DOptions>(plan)](
                                    const auto& cc, auto& u, long n) {
                    tiling::diamond_jacobi3d7_run(cc, u, n, o);
                  }}};
      } else {
        comps = {{"auto", baseline::autovec_jacobi3d7_run},
                 {"multiload", baseline::multiload_jacobi3d7_run}};
      }
      return grid_case(name, p, upd, c, fp(D3(s.nx, s.ny, s.nz)),
                       &stencil::jacobi3d7_run<double>, std::move(comps));
    }
    case Family::kGs1D3: {
      const stencil::C1D3 c = stencil::heat1d(0.25);
      Comps<stencil::C1D3, D1> comps;
      if (tiled) {
        comps = {{"tiled-auto",
                  [o = scalar_tiles<tiling::Parallelogram1DOptions>(plan)](
                      const auto& cc, auto& u, long n) {
                    tiling::parallelogram_gs1d3_run(cc, u, n, o);
                  }}};
      }
      return grid_case(name, p, upd, c, fp(D1(s.nx)), &stencil::gs1d3_run<double>,
                       std::move(comps));
    }
    case Family::kGs2D5: {
      const stencil::C2D5 c = stencil::heat2d(0.125);
      Comps<stencil::C2D5, D2> comps;
      if (tiled) {
        comps = {{"tiled-auto",
                  [o = scalar_tiles<tiling::ParallelogramNDOptions>(plan)](
                      const auto& cc, auto& u, long n) {
                    tiling::parallelogram_gs2d5_run(cc, u, n, o);
                  }}};
      }
      return grid_case(name, p, upd, c, fp(D2(s.nx, s.ny)),
                       &stencil::gs2d5_run<double>, std::move(comps));
    }
    case Family::kGs3D7: {
      const stencil::C3D7 c = stencil::heat3d(0.1);
      Comps<stencil::C3D7, D3> comps;
      if (tiled) {
        comps = {{"tiled-auto",
                  [o = scalar_tiles<tiling::ParallelogramNDOptions>(plan)](
                      const auto& cc, auto& u, long n) {
                    tiling::parallelogram_gs3d7_run(cc, u, n, o);
                  }}};
      }
      return grid_case(name, p, upd, c, fp(D3(s.nx, s.ny, s.nz)),
                       &stencil::gs3d7_run<double>, std::move(comps));
    }
    case Family::kLife: {
      const stencil::LifeRule r;
      I2 g(s.nx, s.ny);
      g.fill_random(rng, 0, 1);
      Comps<stencil::LifeRule, I2> comps;
      if (tiled) {
        comps = {{"auto", baseline::par_autovec_life_run},
                 {"tiled-auto", [o = scalar_tiles<tiling::Diamond2DOptions>(plan)](
                                    const auto& rr, auto& u, long n) {
                    tiling::diamond_life_run(rr, u, n, o);
                  }}};
      } else {
        comps = {{"auto", baseline::autovec_life_run},
                 {"multiload", baseline::multiload_life_run}};
      }
      return grid_case(name, p, upd, r, std::move(g), &stencil::life_run,
                       std::move(comps));
    }
    case Family::kLcs: {
      std::uniform_int_distribution<std::int32_t> base(0, 3);
      std::vector<std::int32_t> a(static_cast<std::size_t>(s.nx));
      std::vector<std::int32_t> bb(static_cast<std::size_t>(s.ny));
      for (auto& v : a) v = base(rng);
      for (auto& v : bb) v = base(rng);
      return std::make_unique<LcsCase>(p, std::move(a), std::move(bb), plan);
    }
  }
  throw solver::Error(solver::Errc::kBadFamily, "tvbench: unknown family");
}

}  // namespace tvbench
