// tvbench: one workload of the libtvs benchmark, run in this process.
//
//   tvbench --workload serial-cache --seed 7 --seconds 10 --trace 0
//
// The program reaches libtvs only through its public calls: ProblemBuilder
// and Solver construction, Solver::run / Solver::submit, serve::stats(),
// solver::plan_cache_stats() and the baseline:: / tiling:: comparators.
// Every run's output is checked against the scalar oracle.
//
// Workloads (see README.md for why each exists):
//   serial-cache  Solver::run, one thread, working sets inside one core's L2
//   serial-llc    the same families between the per-core L2 and the LLC
//   tiled-par     tiled-parallel plans at threads = nproc
//   serve-mix     Solver::submit from one thread, 2 x (nproc - 1) requests
//                 in flight on nproc - 1 pool workers
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced rounds, runs the comparator table and prints the per-layer
// metrics.  Both print a {"record": ...} line (what ran) and end with the
// result object as the last line of standard output.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cases.hpp"
#include "dispatch/backend.hpp"
#include "dispatch/registry.hpp"
#include "measure.hpp"
#include "serve/executor.hpp"
#include "serve/stats.hpp"
#include "trace.hpp"

extern char** environ;

namespace tvbench {
namespace {

using namespace tvs;
using solver::Family;

// ---- command line ----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt = false;  // self-check: perturb every expected output
};

constexpr int kSetupReps = 5;  // setup_s is the median of this many set-ups
constexpr const char* kOutDir = ".bench_build/out";  // records and traces

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "tvbench: %s\nusage: tvbench --workload "
               "serial-cache|serial-llc|tiled-par|serve-mix --seed N "
               "--seconds S --trace 0|1 [--corrupt-expected]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = val();
    } else if (a == "--seed") {
      o.seed = std::stoull(val());
    } else if (a == "--seconds") {
      o.seconds = std::stod(val());
    } else if (a == "--trace") {
      o.trace = val() != "0";
    } else if (a == "--corrupt-expected") {
      o.corrupt = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

// ---- workloads -------------------------------------------------------------

// A distinct problem, its per-run update target and how often one round
// runs it.
struct Entry {
  Spec spec;
  double updates;
  int per_round = 1;
};

struct WorkloadDef {
  std::vector<Entry> entries;
  bool serve = false;
};

constexpr double kMi = 1024.0 * 1024.0;

// Sizes: serial-cache keeps every working set inside one core's 2 MiB L2;
// serial-llc puts it between that L2 and the LLC (4-16 MiB, far below the
// 300 MiB L3, so no DRAM-sized set-up); tiled-par exceeds the per-core L2.
WorkloadDef workload_def(const std::string& name, int nproc) {
  auto fam = [](Family f, int nx, int ny = 0, int nz = 0, int threads = 0,
                bool f32 = false) { return Spec{f, f32, nx, ny, nz, threads}; };
  WorkloadDef w;
  if (name == "serial-cache" || name == "serial-llc") {
    const bool llc = name == "serial-llc";
    const int n1 = llc ? 1 << 20 : 1 << 12;
    const int n2 = llc ? 1024 : 128;
    const int n3 = llc ? 128 : 32;
    const double u = llc ? 32 * kMi : 4 * kMi;
    for (const Spec& s :
         {fam(Family::kJacobi1D3, n1), fam(Family::kJacobi1D5, n1),
          fam(Family::kJacobi2D5, n2, n2), fam(Family::kJacobi2D9, n2, n2),
          fam(Family::kJacobi2D9, n2, n2, 0, 0, true),
          fam(Family::kJacobi3D7, n3, n3, n3), fam(Family::kGs1D3, n1),
          fam(Family::kGs2D5, n2, n2), fam(Family::kGs3D7, n3, n3, n3),
          fam(Family::kLife, n2, n2),
          // LCS: one DP row of |b| + 1 int32 plus b is the working set.
          llc ? fam(Family::kLcs, 64, 1 << 19) : fam(Family::kLcs, 2048, 2048)}) {
      w.entries.push_back({s, u});
    }
  } else if (name == "tiled-par") {
    const double u = 32 * kMi;
    for (const Spec& s :
         {fam(Family::kJacobi1D3, 1 << 20, 0, 0, nproc),
          fam(Family::kJacobi2D5, 1024, 1024, 0, nproc),
          fam(Family::kJacobi2D9, 1024, 1024, 0, nproc),
          fam(Family::kJacobi3D7, 128, 128, 128, nproc),
          fam(Family::kGs1D3, 1 << 20, 0, 0, nproc),
          fam(Family::kGs2D5, 1024, 1024, 0, nproc),
          fam(Family::kGs3D7, 128, 128, 128, nproc),
          fam(Family::kLife, 1024, 1024, 0, nproc),
          fam(Family::kLcs, 4096, 8192, 0, nproc)}) {
      w.entries.push_back({s, u});
    }
  } else if (name == "serve-mix") {
    // Small requests are the majority of the requests and of the updates:
    // 112 of 115 requests and 7 of 10.1 Mi updates per round.  At 64 Ki
    // updates a small request's kernel runs for tens to hundreds of
    // microseconds, the scale of the per-request facade and executor costs.
    w.serve = true;
    for (const Spec& s :
         {fam(Family::kJacobi1D3, 4096), fam(Family::kJacobi2D5, 64, 64),
          fam(Family::kJacobi2D9, 64, 64, 0, 0, true),
          fam(Family::kJacobi3D7, 16, 16, 16), fam(Family::kGs2D5, 64, 64),
          fam(Family::kLife, 64, 64), fam(Family::kLcs, 256, 256)}) {
      w.entries.push_back({s, 64 * 1024.0, 16});
    }
    // One of each mid-size tiled problem at the minimum of 8 steps (an
    // update target of 0), which the serving layer splits into stage tasks
    // (at least two tiles per stage under the heuristic tiling).
    const int t = std::max(2, nproc - 1);
    for (const Spec& s : {fam(Family::kJacobi2D5, 384, 384, 0, t),
                          fam(Family::kJacobi3D7, 48, 48, 48, t),
                          fam(Family::kGs2D5, 384, 384, 0, t)}) {
      w.entries.push_back({s, 0.0, 1});
    }
  } else {
    usage(("unknown workload " + name).c_str());
  }
  return w;
}

// ---- environment and the "what ran" record ---------------------------------

// The library's knobs as this process sees them.  run.py starts the
// program with every knob removed; the record lists what is left.
std::vector<std::string> tvs_environment() {
  std::vector<std::string> seen;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TVS_", 4) == 0) seen.emplace_back(*e);
  }
  return seen;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t v = line.find_first_not_of(" \t", line.find(':') + 1);
      return v == std::string::npos ? "" : line.substr(v);
    }
  }
  return "unknown";
}

std::string thp_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string s;
  std::getline(in, s);
  const std::size_t a = s.find('['), b = s.find(']');
  return a == std::string::npos || b == std::string::npos ? "unknown"
                                                          : s.substr(a + 1, b - a - 1);
}

// The registry id the plan routes to (ids share the family-name stems).
std::string kernel_id(const solver::StencilProblem& p,
                      const solver::ExecutionPlan& plan) {
  const std::string fam(solver::family_name(p.family));
  if (plan.path == solver::Path::kTiledParallel) {
    if (p.family == Family::kLcs) return "lcs_wavefront";
    const bool gs = p.family == Family::kGs1D3 || p.family == Family::kGs2D5 ||
                    p.family == Family::kGs3D7;
    return (gs ? "parallelogram_" : "diamond_") + fam;
  }
  if (p.family == Family::kLcs) return "tv_lcs_rows";
  return "tv_" + fam + (plan.variant == solver::Variant::kRe ? "_re" : "");
}

std::string resolved_backend(const solver::StencilProblem& p,
                             const solver::ExecutionPlan& plan) {
  const auto& reg = dispatch::KernelRegistry::instance();
  const std::string id = kernel_id(p, plan);
  try {
    dispatch::Backend b;
    if (p.effective_dtype() == dispatch::DType::kF32) {
      b = reg.resolved_backend_at(id, plan.backend,
                                  plan.vl > 0 ? plan.vl : dispatch::kAnyVl,
                                  p.effective_dtype());
    } else {
      b = plan.vl > 0 ? reg.resolved_backend_at(id, plan.backend, plan.vl)
                      : reg.resolved_backend_at(id, plan.backend);
    }
    return std::string(dispatch::backend_name(b));
  } catch (const std::exception& e) {
    return std::string("unresolved: ") + e.what();
  }
}

// ---- the benchmark ---------------------------------------------------------

class Bench {
 public:
  Bench(const Options& o, int nproc)
      : opt_(o), nproc_(nproc), workers_(std::max(1, nproc - 1)) {
    def_ = workload_def(o.workload, nproc);
    if (def_.serve) setenv("TVS_SERVE_WORKERS", std::to_string(workers_).c_str(), 1);
    tvs_env_ = tvs_environment();
    tr_.enable(o.trace);
    root_ = tr_.open("workload", -1);
    for (std::size_t i = 0; i < def_.entries.size(); ++i) {
      // Inputs depend on the seed and the case's position only.
      cases_.push_back(make_case(def_.entries[i].spec, def_.entries[i].updates,
                                 o.seed * 1000003ULL + i));
    }
    for (auto& c : cases_) {
      const int sp = tr_.open("oracle", root_);
      c->compute_oracle();
      tr_.close(sp);
      if (o.corrupt) c->corrupt_expected();
    }
    slots_.resize(cases_.size());
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const int n = def_.serve ? def_.entries[i].per_round : 1;
      for (int k = 0; k < n; ++k) slots_[i].push_back(cases_[i]->make_slot());
    }
    kernel_rates_.resize(cases_.size());
    rss_base_ = open_rss_window();
  }

  void run() {
    setup();
    const serve::Stats s0 = serve::stats();
    if (def_.serve) {
      serve_rounds();
    } else {
      rounds();
    }
    const serve::Stats s1 = serve::stats();
    steals_ = s1.executor.steals - s0.executor.steals;
    tasks_ = s1.executor.tasks_run - s0.executor.tasks_run;
    tile_tasks_ = s1.sched.tile_tasks - s0.sched.tile_tasks;
    if (opt_.trace) {
      if (def_.serve) {
        probe();
      } else {
        comparators();
      }
      if (!def_.serve && cases_.front()->problem().threads > 1) scaling();
    }
    tr_.enable(opt_.trace);
    tr_.close(root_);
    report();
  }

 private:
  // ---- bookkeeping ----

  bool account(bool ok) {
    ++attempted_;
    if (ok) ++passed_;
    return ok;
  }

  // Synchronous run of case i: restore (untimed), run, check.  Returns the
  // call's wall seconds; a timed run also records its kernel rate, faults
  // and, when traced, the facade overhead.
  double run_case(std::size_t i, int parent, long req,
                  const solver::Solver& s, bool timed = true) {
    Slot& slot = *slots_[i][0];
    const int rq = tr_.open("request", parent, req);
    int sp = tr_.open("restore", rq, req);
    slot.restore();
    tr_.close(sp);
    const long f0 = minflt();
    const double t0 = now_s();
    solver::RunResult r;
    bool threw = false;
    try {
      r = s.run(slot.workload());
    } catch (const solver::Error& e) {
      threw = true;
      note_error(e);
    }
    const double t1 = now_s();
    sp = tr_.add("run", rq, t0, t1, req);
    if (!threw) tr_.add("kernel", sp, t1 - r.seconds, t1, req);
    sp = tr_.open("check", rq, req);
    account(!threw && slot.matches(r));
    tr_.close(sp);
    tr_.close(rq);
    if (timed && !threw) {
      kernel_rates_[i].push_back(cases_[i]->updates() / r.seconds / 1e9);
      faults_.push_back(static_cast<double>(minflt() - f0));
      if (tr_.on()) overhead_us_.push_back((t1 - t0 - r.seconds) * 1e6);
    }
    return t1 - t0;
  }

  void note_error(const solver::Error& e) {
    if (errors_++ < 5) std::fprintf(stderr, "tvbench: solver::Error: %s\n", e.what());
  }

  // ---- set-up: pool, cold planning, one warm-up run per problem ----

  void setup() {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const int sp = tr_.open("setup", root_);
      double spent = 0.0;
      // serve-mix pays for a pool: the default pool that submit() uses is
      // built in the first set-up, and every set-up times one more pool of
      // the same size so the median includes ThreadPool construction.
      std::optional<serve::ThreadPool> pool;
      if (def_.serve) {
        const double t0 = now_s();
        if (rep == 0) serve::default_pool();
        pool.emplace(workers_);
        const double t1 = now_s();
        tr_.add("pool", sp, t0, t1);
        spent += t1 - t0;
      }
      solver::plan_cache_clear();
      solvers_.clear();
      for (auto& c : cases_) {
        const double t0 = now_s();
        solvers_.emplace_back(c->problem(), solver::PlanMode::kHeuristic);
        const double t1 = now_s();
        tr_.add("solver.construct", sp, t0, t1);
        plan_ms_.push_back((t1 - t0) * 1e3);
        spent += t1 - t0;
      }
      for (std::size_t i = 0; i < cases_.size(); ++i) {
        spent += def_.serve ? submit_and_wait(i, sp, -1)
                            : run_case(i, sp, -1, solvers_[i], false);
      }
      tr_.close(sp);
      setup_s_.push_back(spent);
    }
  }

  // ---- rounds and host interference ----

  // One measured round.  `disturbed` marks a round during which the
  // hypervisor stole more than 3% of the guest's CPU time (and at least two
  // clock ticks): such a round measures the neighbours, not the library.
  struct Round {
    bool traced = false;
    bool disturbed = false;
    double t0 = 0.0;
    long steal0 = 0;
    double gstencils = 0.0, per_s = 0.0;
    std::vector<double> latency_ms;
  };

  static Round begin_round(bool traced) {
    Round r;
    r.traced = traced;
    r.t0 = now_s();
    r.steal0 = steal_ticks();
    return r;
  }

  void end_round(Round& r, double gstencils, double per_s) {
    static const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
    const long stolen = steal_ticks() - r.steal0;
    const double capacity = (now_s() - r.t0) * hz * nproc_;
    r.disturbed = r.steal0 >= 0 && stolen >= 2 &&
                  static_cast<double>(stolen) > 0.03 * capacity;
    r.gstencils = gstencils;
    r.per_s = per_s;
    log_.push_back(std::move(r));
  }

  // The untraced (or traced) rounds the medians use: the undisturbed ones
  // when at least a quarter of them (and three) are, else all of them.
  std::vector<const Round*> measured(bool traced) const {
    std::vector<const Round*> all, clean;
    for (const Round& r : log_) {
      if (r.traced != traced) continue;
      all.push_back(&r);
      if (!r.disturbed) clean.push_back(&r);
    }
    return clean.size() >= std::max<std::size_t>(3, all.size() / 4) ? clean : all;
  }

  template <class F>
  static std::vector<double> collect(const std::vector<const Round*>& rs, F f) {
    std::vector<double> out;
    for (const Round* r : rs) f(*r, out);
    return out;
  }

  double median_gstencils(bool traced) const {
    return median(collect(measured(traced),
                          [](const Round& r, auto& v) { v.push_back(r.gstencils); }));
  }

  // ---- serial / tiled rounds ----

  void rounds() {
    // Every round runs every case once; the starting case rotates so each
    // family sees every position.  The order does not depend on the seed,
    // so allocation patterns (and peak RSS) repeat across seeds.
    std::vector<std::size_t> order(cases_.size());
    const double end = now_s() + opt_.seconds;
    long req = 0;
    for (long r = 0; r < 2 || now_s() < end; ++r) {
      const bool traced = opt_.trace && r % 2 == 1;
      tr_.enable(traced);
      for (std::size_t j = 0; j < order.size(); ++j) {
        order[j] = (j + static_cast<std::size_t>(r)) % order.size();
      }
      const int rs = tr_.open("round", root_);
      Round round = begin_round(traced);
      double wall = 0.0, upd = 0.0;
      for (std::size_t i : order) {
        const double w = run_case(i, rs, req++, solvers_[i]);
        round.latency_ms.push_back(w * 1e3);
        wall += w;
        upd += cases_[i]->updates();
      }
      tr_.close(rs);
      end_round(round, upd / wall / 1e9, static_cast<double>(order.size()) / wall);
    }
    tr_.enable(false);
  }

  // ---- serving rounds ----

  // One request outside the measured rounds (warm-up, probe): restore,
  // submit, wait, check.  Returns submit -> ready seconds.
  double submit_and_wait(std::size_t i, int parent, long req) {
    Slot& slot = *slots_[i][0];
    slot.restore();
    const int rq = tr_.open("request", parent, req);
    const double t0 = now_s();
    try {
      const solver::RunResult r = solvers_[i].submit(slot.workload()).get();
      account(slot.matches(r));
    } catch (const solver::Error& e) {
      account(false);
      note_error(e);
    }
    const double t1 = now_s();
    tr_.add("submit+ready", rq, t0, t1, req);
    tr_.close(rq);
    return t1 - t0;
  }

  void serve_rounds() {
    // Two requests per worker in flight: each worker has the next request
    // queued while the submitter collects a finished one.
    const std::size_t window = 2 * static_cast<std::size_t>(workers_);
    std::vector<std::size_t> list;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      for (int k = 0; k < def_.entries[i].per_round; ++k) list.push_back(i);
    }
    struct Pending {
      std::size_t i = 0, k = 0;
      long req = 0;
      int span = -1, lane = 0;
      double t_submit = 0.0, t_called = 0.0;
      solver::Future<solver::RunResult> fut;
    };
    std::vector<std::vector<std::size_t>> free(cases_.size());
    std::mt19937_64 rng(opt_.seed ^ 0x5eedULL);
    std::vector<int> lanes(window);
    const double end = now_s() + opt_.seconds;
    long req = 0;
    for (long r = 0; r < 2 || now_s() < end; ++r) {
      const bool traced = opt_.trace && r % 2 == 1;
      tr_.enable(traced);
      std::shuffle(list.begin(), list.end(), rng);
      for (std::size_t i = 0; i < cases_.size(); ++i) {
        free[i].resize(slots_[i].size());
        std::iota(free[i].begin(), free[i].end(), 0);
      }
      std::iota(lanes.begin(), lanes.end(), 1);
      std::vector<Pending> inflight;
      std::size_t next = 0;
      double upd = 0.0, busy = 0.0;
      const long f0 = minflt();
      const int rs = tr_.open("round", root_);
      Round round = begin_round(traced);
      const double t_round = now_s();
      double t_last = t_round;
      while (next < list.size() || !inflight.empty()) {
        while (next < list.size() && inflight.size() < window) {
          Pending p;
          p.i = list[next++];
          p.k = free[p.i].back();
          free[p.i].pop_back();
          p.req = req++;
          p.lane = lanes.back();
          lanes.pop_back();
          Slot& slot = *slots_[p.i][p.k];
          slot.restore();
          p.span = tr_.open("request", rs, p.req, p.lane);
          const double t0 = now_s();
          const solver::Solver s(cases_[p.i]->problem(), solver::PlanMode::kHeuristic);
          p.t_submit = now_s();
          tr_.add("solver.construct", p.span, t0, p.t_submit, p.req, p.lane);
          try {
            p.fut = s.submit(slot.workload());
          } catch (const solver::Error& e) {
            account(false);
            note_error(e);
            tr_.close(p.span);
            free[p.i].push_back(p.k);
            lanes.push_back(p.lane);
            continue;
          }
          p.t_called = now_s();
          tr_.add("submit", p.span, p.t_submit, p.t_called, p.req, p.lane);
          if (traced) overhead_us_.push_back((p.t_called - p.t_submit) * 1e6);
          inflight.push_back(std::move(p));
        }
        for (std::size_t j = 0; j < inflight.size();) {
          Pending& p = inflight[j];
          if (p.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
            ++j;
            continue;
          }
          const double t_ready = now_s();
          t_last = t_ready;
          Slot& slot = *slots_[p.i][p.k];
          bool ok = false;
          double secs = 0.0;
          try {
            const solver::RunResult res = p.fut.get();
            secs = res.seconds;
            ok = slot.matches(res);
            kernel_rates_[p.i].push_back(cases_[p.i]->updates() / secs / 1e9);
          } catch (const solver::Error& e) {
            note_error(e);
          }
          account(ok);
          const double lat = t_ready - p.t_submit;
          round.latency_ms.push_back(lat * 1e3);
          queue_ms_.push_back((lat - secs) * 1e3);
          busy += secs;
          upd += cases_[p.i]->updates();
          tr_.add("queue", p.span, p.t_called, t_ready - secs, p.req, p.lane);
          tr_.add("kernel", p.span, t_ready - secs, t_ready, p.req, p.lane);
          tr_.close(p.span);
          free[p.i].push_back(p.k);
          lanes.push_back(p.lane);
          inflight[j] = std::move(inflight.back());
          inflight.pop_back();
        }
      }
      tr_.close(rs);
      const double wall = t_last - t_round;
      end_round(round, upd / wall / 1e9, static_cast<double>(list.size()) / wall);
      busy_.push_back(busy / (workers_ * wall));
      faults_.push_back(static_cast<double>(minflt() - f0) /
                        static_cast<double>(list.size()));
    }
    tr_.enable(false);
  }

  // Idle-pool submit -> ready latency of the smallest request.
  void probe() {
    tr_.enable(true);
    const int sp = tr_.open("probe", root_);
    for (int n = 0; n < 200; ++n) probe_ms_.push_back(submit_and_wait(0, sp, -1) * 1e3);
    tr_.close(sp);
    tr_.enable(false);
  }

  // ---- traced-run extras ----

  // Every comparator on every case: three runs each (fewer past 0.5 s),
  // median rate.
  void comparators() {
    tr_.enable(true);
    const int sp = tr_.open("baselines", root_);
    best_.assign(cases_.size(), 0.0);
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const std::vector<std::string> names = cases_[i]->comparators();
      for (std::size_t c = 0; c < names.size(); ++c) {
        std::vector<double> rates;
        const double cap = now_s() + 0.5;
        for (int rep = 0; rep < 3 && (rep == 0 || now_s() < cap); ++rep) {
          Slot& slot = *slots_[i][0];
          slot.restore();
          const double t0 = now_s();
          cases_[i]->run_comparator(c, slot);
          const double t1 = now_s();
          tr_.add("baseline", sp, t0, t1, static_cast<long>(i));
          rates.push_back(cases_[i]->updates() / (t1 - t0) / 1e9);
        }
        const double m = median(rates);
        comparator_rates_.push_back({cases_[i]->name() + "." + names[c], m});
        best_[i] = std::max(best_[i], m);
      }
    }
    tr_.close(sp);
    tr_.enable(false);
  }

  // The same tiled plan at one thread (tiling.scaling_eff).
  void scaling() {
    tr_.enable(true);
    const int sp = tr_.open("scaling", root_);
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      solver::StencilProblem p1 = cases_[i]->problem();
      const int threads = p1.threads;
      p1.threads = 1;
      const solver::Solver one(p1, solvers_[i].plan());
      std::vector<double> secs;
      for (int rep = 0; rep < 2; ++rep) secs.push_back(run_case(i, sp, -1, one, false));
      const double r1 = cases_[i]->updates() / median(secs) / 1e9;
      const double rt = median(kernel_rates_[i]);
      efficiency_.push_back(rt / (threads * r1));
    }
    tr_.close(sp);
    tr_.enable(false);
  }

  // ---- output ----

  // Metric name -> (value, unit) in the fixed order of BENCHMARK.json.
  using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

  Metrics end_to_end() const {
    const std::vector<const Round*> rs = measured(false);
    return {
        {"gstencils", {median_gstencils(false), "Gstencils/s"}},
        {"problems_per_s",
         {median(collect(rs, [](const Round& r, auto& v) { v.push_back(r.per_s); })),
          "1/s"}},
        {"latency_p50_ms",
         {median(collect(rs,
                         [](const Round& r, auto& v) {
                           v.insert(v.end(), r.latency_ms.begin(), r.latency_ms.end());
                         })),
          "ms"}},
        {"setup_s", {median(setup_s_), "s"}},
        {"peak_rss_mib", {peak_rss_above_base(), "MiB"}},
        {"pass_frac", {pass_frac(), "frac"}},
    };
  }

  // Peak RSS since the benchmark's own data was built, above the resident
  // set at that point: the library's memory (workspaces, pools, code pages).
  double peak_rss_above_base() const {
    return proc_status_mib("VmHWM") - rss_base_.mib;
  }

  double pass_frac() const {
    return attempted_ == 0 ? 0.0 : static_cast<double>(passed_) / attempted_;
  }

  Metrics per_layer() const {
    static const char* const kCases[] = {
        "jacobi1d3", "jacobi1d5", "jacobi2d5", "jacobi2d9", "jacobi2d9_f32",
        "jacobi3d7", "gs1d3",     "gs2d5",     "gs3d7",     "life",
        "lcs"};
    std::map<std::string, double> tv, tiling, best, ours;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const bool tiled = solvers_[i].plan().path == solver::Path::kTiledParallel;
      const double rate = median(kernel_rates_[i]);
      (tiled ? tiling : tv)[cases_[i]->name()] = rate;
      if (!best_.empty()) {
        best[cases_[i]->name()] = best_[i];
        ours[cases_[i]->name()] = rate;
      }
    }
    const solver::PlanCacheStats pc = solver::plan_cache_stats();
    std::vector<double> latency_ms;
    for (const Round& r : log_) {
      latency_ms.insert(latency_ms.end(), r.latency_ms.begin(), r.latency_ms.end());
    }
    const Tail lt = def_.serve ? tail_of(latency_ms) : Tail{};
    const Tail qt = tail_of(queue_ms_);
    auto get = [](const std::map<std::string, double>& m, const std::string& k) {
      const auto it = m.find(k);
      return it == m.end() ? 0.0 : it->second;
    };
    Metrics m = {
        {"solver.plan_ms", {median(plan_ms_), "ms"}},
        {"solver.run_overhead_us", {median(overhead_us_), "us"}},
        {"solver.plan_cache_hits", {static_cast<double>(pc.hits), "count"}},
        {"solver.plan_cache_misses", {static_cast<double>(pc.misses), "count"}},
    };
    for (const char* c : kCases) {
      m.push_back({std::string("tv.") + c + ".gstencils", {get(tv, c), "Gstencils/s"}});
    }
    m.push_back({"tv.minflt_per_run", {mean(faults_), "faults/run"}});
    for (const char* c : kCases) {
      if (std::string(c) == "jacobi1d5" || std::string(c) == "jacobi2d9_f32") continue;
      m.push_back(
          {std::string("tiling.") + c + ".gstencils", {get(tiling, c), "Gstencils/s"}});
    }
    m.push_back({"tiling.scaling_eff", {geomean(efficiency_), "frac"}});
    const double rounds =
        std::max<double>(1.0, static_cast<double>(def_.serve ? log_.size() : 0));
    m.insert(m.end(), {
        {"serve.queue_wait_p50_ms", {median(queue_ms_), "ms"}},
        {"serve.queue_wait_tail_ms", {qt.value, "ms"}},
        {"serve.busy_frac", {median(busy_), "frac"}},
        {"serve.steals_per_task",
         {tasks_ > 0 ? static_cast<double>(steals_) / tasks_ : 0.0, "frac"}},
        {"serve.sched_tile_tasks", {tile_tasks_ / rounds, "count/round"}},
        {"serve.latency_tail_ms", {lt.value, "ms"}},
        {"serve.latency_tail_pct", {lt.pct, "pct"}},
        {"serve.latency_tail_n", {static_cast<double>(lt.beyond), "count"}},
        {"serve.probe_p50_ms", {median(probe_ms_), "ms"}},
    });
    for (const char* c : kCases) {
      const double b = get(best, c);
      m.push_back({std::string("baseline.") + c + ".best_gstencils", {b, "Gstencils/s"}});
      m.push_back({std::string("baseline.") + c + ".vs_best",
                   {b > 0 ? get(ours, c) / b : 0.0, "ratio"}});
    }
    const double untraced = median_gstencils(false);
    m.push_back({"trace.overhead_frac",
                 {untraced > 0 ? 1.0 - median_gstencils(true) / untraced : 0.0, "frac"}});
    return m;
  }

  std::string record() const {
    Json j;
    j.open('{').key("record").open('{');
    j.kv("workload", opt_.workload)
        .kv("seed", static_cast<long>(opt_.seed))
        .kv("trace", static_cast<long>(opt_.trace))
        .kv("seconds", opt_.seconds)
        .kv("nproc", static_cast<long>(nproc_))
        .kv("serve_workers", static_cast<long>(def_.serve ? workers_ : 0))
        .kv("cpu_model", cpu_model())
        .kv("thp", thp_mode())
        .kv("selected_backend", dispatch::backend_name(dispatch::selected_backend()))
        .kv("corrupt_expected", static_cast<long>(opt_.corrupt));
    j.key("tvs_env").open('[');
    for (const std::string& kv : tvs_env_) j.sep().str(kv);
    j.close(']');
    j.key("rss_mib").open('{')
        .kv("base", rss_base_.mib)
        .kv("hwm_reset", static_cast<long>(rss_base_.reset))
        .kv("hwm", proc_status_mib("VmHWM"))
        .close('}');
    j.key("problems").open('[');
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const auto& p = cases_[i]->problem();
      const auto& plan = solvers_[i].plan();
      j.open('{')
          .kv("case", cases_[i]->name())
          .kv("signature", p.signature())
          .kv("updates", cases_[i]->updates())
          .kv("plan", plan.to_string())
          .kv("kernel", kernel_id(p, plan))
          .kv("resolved_backend", resolved_backend(p, plan))
          .kv("kernel_gstencils_p50", median(kernel_rates_[i]))
          .kv("runs", static_cast<long>(kernel_rates_[i].size()))
          .close('}');
    }
    j.close(']');
    long traced = 0, disturbed = 0;
    for (const Round& r : log_) {
      traced += r.traced;
      disturbed += r.disturbed;
    }
    j.key("rounds").open('{')
        .kv("total", static_cast<long>(log_.size()))
        .kv("traced", traced)
        .kv("disturbed", disturbed)
        .kv("used_untraced", static_cast<long>(measured(false).size()))
        .close('}');
    j.key("round_gstencils").open('[');
    for (const Round& r : log_) j.sep().num(r.disturbed ? -r.gstencils : r.gstencils);
    j.close(']');
    j.key("setup_s").open('[');
    for (double s : setup_s_) j.sep().num(s);
    j.close(']');
    if (!comparator_rates_.empty()) {
      j.key("comparators").open('{');
      for (const auto& [k, v] : comparator_rates_) j.kv(k, v);
      j.close('}');
    }
    if (opt_.trace) {
      j.kv("spans", static_cast<long>(tr_.size())).kv("trace_file", trace_path());
      j.key("self_ms").open('{');
      for (const auto& [k, v] : tr_.self_seconds()) j.kv(k, v * 1e3);
      j.close('}');
    }
    j.kv("serve_stats", serve::to_string(serve::stats()));
    j.close('}').close('}');
    return j.text();
  }

  std::string stem() const {
    return std::string(kOutDir) + "/" + opt_.workload + "-seed" +
           std::to_string(opt_.seed) + "-trace" + std::to_string(opt_.trace ? 1 : 0);
  }
  std::string trace_path() const { return stem() + ".trace.json"; }

  void report() {
    std::error_code ec;
    std::filesystem::create_directories(kOutDir, ec);
    const std::string rec = record();
    std::ofstream(stem() + ".record.json") << rec << "\n";
    if (opt_.trace && !tr_.write_chrome(trace_path())) {
      std::fprintf(stderr, "tvbench: cannot write %s\n", trace_path().c_str());
      std::exit(1);
    }
    std::printf("%s\n", rec.c_str());

    Json j;
    j.open('{')
        .flag("correct", passed_ == attempted_ && attempted_ > 0)
        .kv("attempted", attempted_)
        .kv("failed", attempted_ - passed_);
    j.key("metrics").open('{');
    for (const auto& [name, vu] : opt_.trace ? per_layer() : end_to_end()) {
      j.key(name).open('{').kv("value", vu.first).kv("unit", vu.second).close('}');
    }
    j.close('}').close('}');
    std::printf("%s\n", j.text().c_str());
    std::fflush(stdout);
  }

  Options opt_;
  int nproc_;
  int workers_;
  WorkloadDef def_;
  std::vector<std::string> tvs_env_;
  RssBase rss_base_;
  Tracer tr_;
  int root_ = -1;
  std::vector<std::unique_ptr<Case>> cases_;
  std::vector<std::vector<std::unique_ptr<Slot>>> slots_;
  std::vector<solver::Solver> solvers_;

  long attempted_ = 0, passed_ = 0, errors_ = 0;
  std::vector<double> setup_s_, plan_ms_;
  std::vector<Round> log_;
  std::vector<std::vector<double>> kernel_rates_;
  std::vector<double> overhead_us_, faults_, queue_ms_, busy_, probe_ms_;
  std::vector<double> best_, efficiency_;
  std::vector<std::pair<std::string, double>> comparator_rates_;
  long steals_ = 0, tasks_ = 0, tile_tasks_ = 0;
};

}  // namespace
}  // namespace tvbench

int main(int argc, char** argv) {
  const tvbench::Options opt = tvbench::parse(argc, argv);
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  tvbench::Bench bench(opt, nproc);
  bench.run();
  return 0;
}
