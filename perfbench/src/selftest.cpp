/// \file selftest.cpp
/// Shows that every output check can fail: each check first passes on a
/// real short run, then rejects the same outputs with one perturbation,
/// which would count the job as failed.
#include <bit>
#include <cstdio>
#include <filesystem>
#include <string>

#include "checks.hpp"
#include "core/simulator.hpp"
#include "explore/executor.hpp"
#include "explore/sweep_spec.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using annoc::core::Metrics;

struct Report {
  int bad = 0;

  /// `failed` is the number of jobs the check counts as failed.
  void expect(const char* what, std::size_t failed, bool want_failed) {
    const bool ok = (failed > 0) == want_failed;
    std::printf("selftest: %-44s %s (%zu job%s failed)\n", what,
                ok ? (want_failed ? "rejected" : "passes") : "WRONG", failed,
                failed == 1 ? "" : "s");
    if (!ok) ++bad;
  }
  /// A property of the unperturbed run that makes a perturbation
  /// meaningful.
  void require(const char* what, bool holds) {
    std::printf("selftest: %-44s %s\n", what,
                holds ? "holds" : "DOES NOT HOLD");
    if (!holds) ++bad;
  }
};

std::size_t failed(const Problems& p) { return p.empty() ? 0 : 1; }

void job_checks(Report& r) {
  annoc::core::SystemConfig cfg;
  cfg.design = annoc::core::DesignPoint::kGssSagm;  // splits: forks occur
  cfg.priority_enabled = true;
  cfg.warmup_cycles = 1000;
  cfg.sim_cycles = 4000;
  CountingSink sink;
  annoc::core::Simulator sim(cfg);
  sim.attach_sink(&sink);
  const Metrics plain = sim.run();
  annoc::core::SystemConfig dense_cfg = cfg;
  dense_cfg.sched = annoc::core::SchedMode::kDense;
  const Metrics dense = annoc::core::run_simulation(dense_cfg);

  Problems p;
  check_invariants(plain, p);
  check_fork_join(sink.forks, sink.joins, p);
  diff_metrics(dense, plain, "default scheduler", p);
  r.expect("short gss+sagm job, unperturbed", failed(p), false);
  r.require("  ... and it forked requests", sink.forks > 0);

  Metrics flipped = plain;
  flipped.utilization = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(flipped.utilization) ^ 1u);
  p.clear();
  diff_metrics(dense, flipped, "default scheduler", p);
  r.expect("one Metrics bit flipped between reruns", failed(p), true);

  p.clear();
  check_fork_join(sink.forks + 1, sink.joins, p);
  r.expect("a fork without a join", failed(p), true);

  Metrics lost = plain;
  lost.outstanding_requests = 1;
  p.clear();
  check_invariants(lost, p);
  r.expect("a request left outstanding", failed(p), true);
}

void sweep_checks(Report& r, const std::string& work_dir) {
  const std::string out = work_dir + "/sweep-out";
  std::filesystem::remove_all(out);
  const annoc::explore::SweepSpec spec = annoc::explore::parse_sweep_spec(
      R"({"name": "selftest", "mode": "grid", "axes": [
            {"key": "design", "values": ["gss", "gss+sagm"]},
            {"key": "pct", "values": [3, 4, 5]},
            {"key": "measure_cycles", "values": [3000]},
            {"key": "warmup_cycles", "values": [500]}]})",
      "<selftest>");
  annoc::explore::ExecutorOptions opts;
  opts.out_dir = out;
  opts.jobs = 2;
  annoc::explore::run_sweep(spec, opts);
  const std::vector<SweepRow> rows = read_rows(out + "/merged.jsonl");
  const std::vector<std::uint64_t> frontier =
      read_pareto_jobs(out + "/pareto.json");
  const std::uint64_t total = spec.job_count();

  r.expect("sweep rows, unperturbed", check_rows(rows, total).size(), false);
  r.expect("sweep Pareto set, unperturbed",
           check_pareto(rows, frontier).size(), false);

  std::vector<SweepRow> dropped = rows;
  dropped.erase(dropped.begin() + 1);
  r.expect("a dropped sweep row", check_rows(dropped, total).size(), true);

  std::vector<SweepRow> duplicated = rows;
  duplicated.insert(duplicated.begin() + 2, rows[2]);
  r.expect("a duplicated sweep row", check_rows(duplicated, total).size(),
           true);

  std::vector<std::uint64_t> padded = frontier;
  for (const SweepRow& row : rows) {
    bool on_frontier = false;
    for (const std::uint64_t j : frontier) on_frontier |= j == row.job;
    if (!on_frontier) {
      padded.push_back(row.job);
      break;
    }
  }
  r.require("  ... the sweep has a dominated point",
            padded.size() > frontier.size());
  r.expect("a dominated point added to the Pareto set",
           check_pareto(rows, padded).size(), true);

  const Metrics rerun =
      annoc::core::run_simulation(spec.job_config(rows[0].job));
  Problems p;
  check_row_matches(rows[0], rerun, p);
  r.expect("serial rerun of a sweep job, unperturbed", failed(p), false);
  SweepRow edited = rows[0];
  ++edited.requests;
  p.clear();
  check_row_matches(edited, rerun, p);
  r.expect("a sweep row that its rerun contradicts", failed(p), true);
}

}  // namespace

int run_selftest(const std::string& work_dir) {
  Report r;
  job_checks(r);
  sweep_checks(r, work_dir);
  std::printf("selftest: %s\n", r.bad == 0 ? "every check can fail"
                                           : "FAILED");
  return r.bad == 0 ? 0 : 1;
}

}  // namespace perfbench
