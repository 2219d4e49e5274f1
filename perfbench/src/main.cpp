/// \file main.cpp
/// The repository benchmark. One workload per process; perfbench/run.py
/// writes the workload's inputs from the seed and passes their paths.
///
///   perfbench --workload W --seed N --seconds S --trace 0|1 --work DIR
///             [--spans PATH] [--source-digest D] INPUT...
///   perfbench --selftest --work DIR
///
/// The timed pass (--trace 0) repeats whole rounds of the workload for S
/// seconds with the program's defaults (checks on, observe off, default
/// scheduler, no sink) and reports set-up time as a median over rounds
/// and the rates as totals over the run. The traced pass (--trace 1)
/// runs one round with every job rerun under a counting sink,
/// sched=dense, sched=event, check=false and observe=counters, and
/// reports the per-layer metrics and a span file. Both passes check every job's outputs. The last
/// stdout line is {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "core/simulator.hpp"
#include "explore/executor.hpp"
#include "explore/sweep_spec.hpp"
#include "runner/experiment_runner.hpp"
#include "scenario/json.hpp"
#include "scenario/scenario.hpp"
#include "trace.hpp"

namespace {

using namespace annoc;
using perfbench::Clock;
using perfbench::CountingSink;
using perfbench::Problems;
using perfbench::seconds_since;
using perfbench::SpanRecorder;
using perfbench::SweepRow;
using Scope = SpanRecorder::Scope;

/// Sweep jobs rerun serially through core::Simulator and compared with
/// their rows, in every round.
constexpr std::size_t kSweepSample = 16;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool selftest = false;
  std::string work;
  std::string spans;
  std::string source_digest = "none";
  std::vector<std::string> inputs;
};

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(s, &end, 10);
  return *s >= '0' && *s <= '9' && end != s && *end == '\0' && errno == 0;
}

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string opt = argv[i];
    if (opt == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (opt.rfind("--", 0) != 0) {
      a.inputs.push_back(opt);
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (opt == "--workload") {
      a.workload = v;
    } else if (opt == "--seed" && parse_u64(v, &a.seed)) {
      have_seed = true;
    } else if (opt == "--seconds") {
      char* end = nullptr;
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0.0)) return false;
      have_seconds = true;
    } else if (opt == "--trace" && parse_u64(v, &n) && n <= 1) {
      a.trace = n == 1;
      have_trace = true;
    } else if (opt == "--work") {
      a.work = v;
    } else if (opt == "--spans") {
      a.spans = v;
    } else if (opt == "--source-digest") {
      a.source_digest = v;
    } else {
      return false;
    }
  }
  if (a.work.empty()) return false;
  if (a.selftest) return true;
  const bool known = a.workload == "table2" || a.workload == "mesh16" ||
                     a.workload == "frames_idle" || a.workload == "sweep";
  return known && have_seed && have_seconds && have_trace &&
         !a.inputs.empty() && (a.workload != "sweep" || a.inputs.size() == 1);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Jobs attempted and failed. The first problems of failed jobs go to
/// stderr.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Run-level problems (not attributable to one job) clear `correct`.
  bool correct = true;

  void job(const std::string& name, const Problems& p) {
    ++attempted;
    if (p.empty()) return;
    ++failed;
    report(name, p);
  }
  static void report(const std::string& name, const Problems& p) {
    std::fprintf(stderr, "perfbench: job %s failed:\n", name.c_str());
    for (std::size_t i = 0; i < p.size() && i < 8; ++i) {
      std::fprintf(stderr, "  %s\n", p[i].c_str());
    }
  }
};

// ---------------------------------------------------------------------------
// One simulation, timed from outside.

struct NocTotals {
  std::uint64_t arbitration_rounds = 0;
  std::uint64_t grants = 0;
  std::uint64_t blocked_downstream = 0;
  std::uint64_t gss_exclusions = 0;
  std::uint64_t flits = 0;
};

struct RunOut {
  core::Metrics m;
  double build_s = 0.0;  ///< Simulator constructor
  double run_s = 0.0;    ///< Simulator::run
  Cycle cycles = 0;      ///< warmup + window + drain
  obs::SchedCounters sched;
  NocTotals noc;
};

RunOut run_job(const core::SystemConfig& cfg, SpanRecorder& spans,
               SpanRecorder::Id parent, const char* label,
               obs::EventSink* sink = nullptr) {
  RunOut o;
  std::unique_ptr<core::Simulator> sim;
  {
    const Scope span(spans, std::string("core.build ") + label, parent);
    const auto t = Clock::now();
    sim = std::make_unique<core::Simulator>(cfg);
    o.build_s = seconds_since(t);
  }
  if (sink != nullptr) sim->attach_sink(sink);
  {
    const Scope span(spans, std::string("core.run ") + label, parent);
    const auto t = Clock::now();
    o.m = sim->run();
    o.run_s = seconds_since(t);
  }
  o.cycles = sim->now();
  o.sched = sim->sched_counters();
  const noc::Network& net = sim->network();
  for (NodeId r = 0; r < net.num_routers(); ++r) {
    const noc::RouterStats& s = net.router(r).stats();
    o.noc.arbitration_rounds += s.arbitration_rounds;
    o.noc.grants += s.packets_forwarded;
    o.noc.blocked_downstream += s.blocked_on_downstream;
    o.noc.gss_exclusions += s.idle_grants;
    o.noc.flits += s.flits_forwarded;
  }
  return o;
}

// ---------------------------------------------------------------------------
// Per-layer accumulation of the traced pass.

struct Layers {
  std::uint64_t jobs = 0;
  double load_s = 0.0;
  std::uint64_t loads = 0;
  double expand_s = 0.0, merge_s = 0.0;
  std::uint64_t rows_bytes = 0;
  double busy_frac = 0.0, job_s_p50 = 0.0, job_s_p99 = 0.0;
  double build_s = 0.0, run_s = 0.0, cycles = 0.0;
  double dense_run_s = 0.0, nocheck_run_s = 0.0, counters_run_s = 0.0,
         traced_run_s = 0.0;
  obs::SchedCounters sched;
  std::uint64_t requests = 0, forks = 0;
  double source_queue_cy = 0.0, network_cy = 0.0, memory_cy = 0.0;
  NocTotals noc;
  std::uint64_t stall_full = 0, stall_sink = 0;
  memctrl::EngineStats engine;
  std::uint64_t dpq_grants = 0;
  std::uint64_t commands = 0, cas = 0, row_hits = 0, refreshes = 0,
                turnarounds = 0, wasted_beats = 0;
  std::uint64_t check_events = 0, obs_events = 0;
};

/// Timed samples each traced-pass variant gets at least: single-job
/// workloads repeat their variants, since one rerun on a shared host
/// is too noisy for an overhead ratio.
constexpr std::size_t kMinTimedSamples = 3;

std::size_t reps_for(std::size_t jobs) {
  return (kMinTimedSamples + jobs - 1) / jobs;
}

/// Run one job as the traced pass does — default, default with the
/// counting sink, and the four reruns — `reps` times round-robin, so a
/// slow spell of the host hits every variant alike. Checks the outputs,
/// folds the layer counts and each variant's median run time into `L`,
/// and returns the default run's Metrics.
core::Metrics traced_job(const core::SystemConfig& cfg,
                         const std::string& name, std::size_t reps,
                         SpanRecorder& spans, SpanRecorder::Id parent,
                         Layers& L, Problems& p) {
  enum { kDefault, kSink, kDense, kEvent, kNoCheck, kCounters, kVariants };
  static constexpr const char* kLabels[kVariants] = {
      "default",     "sink",        "sched=dense",
      "sched=event", "check=false", "observe=counters"};
  std::array<core::SystemConfig, kVariants> cfgs;
  cfgs.fill(cfg);
  cfgs[kDense].sched = core::SchedMode::kDense;
  cfgs[kEvent].sched = core::SchedMode::kEvent;
  cfgs[kNoCheck].check = false;
  cfgs[kCounters].observe = core::ObserveLevel::kCounters;

  const Scope job(spans, "job " + name, parent);
  std::array<RunOut, kVariants> first;
  std::array<std::vector<double>, kVariants> run_s;
  std::vector<CountingSink> sinks(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    for (int v = 0; v < kVariants; ++v) {
      RunOut o = run_job(cfgs[v], spans, job.id(), kLabels[v],
                         v == kSink ? &sinks[r] : nullptr);
      run_s[v].push_back(o.run_s);
      if (r == 0) {
        first[v] = std::move(o);
      } else {
        perfbench::diff_metrics(first[v].m, o.m,
                                std::string(kLabels[v]) + " repeated", p);
      }
    }
  }
  const RunOut& plain = first[kDefault];
  const RunOut& event = first[kEvent];
  const CountingSink& sink = sinks[0];

  perfbench::check_invariants(plain.m, p);
  perfbench::check_fork_join(sink.forks, sink.joins, p);
  // Dense stepping is the reference every other run must equal bitwise.
  const core::Metrics& ref = first[kDense].m;
  perfbench::diff_metrics(ref, plain.m, "default scheduler", p);
  perfbench::diff_metrics(ref, event.m, "sched=event", p);
  perfbench::diff_metrics(ref, first[kSink].m, "counting sink attached", p);
  perfbench::diff_metrics(ref, first[kNoCheck].m, "check=false", p);
  perfbench::diff_metrics(ref, first[kCounters].m, "observe=counters", p);

  ++L.jobs;
  L.build_s += plain.build_s;
  L.run_s += median(run_s[kDefault]);
  L.cycles += static_cast<double>(plain.cycles);
  L.dense_run_s += median(run_s[kDense]);
  L.nocheck_run_s += median(run_s[kNoCheck]);
  L.counters_run_s += median(run_s[kCounters]);
  L.traced_run_s += median(run_s[kSink]);
  L.sched.executed_cycles += event.sched.executed_cycles;
  L.sched.skipped_cycles += event.sched.skipped_cycles;
  L.sched.wakeups += event.sched.wakeups;
  L.sched.schedules += event.sched.schedules;
  L.requests += sink.requests;
  L.forks += sink.forks;
  L.source_queue_cy += plain.m.source_queue.mean();
  L.network_cy += plain.m.network.mean();
  L.memory_cy += plain.m.memory.mean();
  L.noc.arbitration_rounds += plain.noc.arbitration_rounds;
  L.noc.grants += plain.noc.grants;
  L.noc.blocked_downstream += plain.noc.blocked_downstream;
  L.noc.gss_exclusions += plain.noc.gss_exclusions;
  L.noc.flits += plain.noc.flits;
  using obs::StallCause;
  L.stall_full += sink.stalls[static_cast<int>(StallCause::kDownstreamFull)];
  L.stall_sink += sink.stalls[static_cast<int>(StallCause::kSinkBusy)];
  const memctrl::EngineStats& e = plain.m.engine;
  L.engine.requests_completed += e.requests_completed;
  L.engine.cas_issued += e.cas_issued;
  L.engine.act_issued += e.act_issued;
  L.engine.pre_issued += e.pre_issued;
  L.engine.stall_cycles += e.stall_cycles;
  L.dpq_grants += sink.dpq_grants;
  const sdram::DeviceStats& d = plain.m.device;
  L.commands += d.activates + d.precharges + d.reads + d.writes + d.refreshes;
  L.cas += d.reads + d.writes;
  L.row_hits += d.cas_row_hits;
  L.refreshes += d.refreshes;
  L.turnarounds += d.bus_direction_turnarounds;
  L.wasted_beats += d.wasted_beats();
  L.check_events += sink.checked();
  L.obs_events += sink.total();
  return plain.m;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> layer_metrics(const Layers& L) {
  const auto n = static_cast<double>(std::max<std::uint64_t>(L.jobs, 1));
  const auto c = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"scenario.load_s", L.load_s, "s"},
      {"scenario.loads", c(L.loads), "count"},
      {"explore.expand_s", L.expand_s, "s"},
      {"explore.merge_s", L.merge_s, "s"},
      {"explore.rows_bytes", c(L.rows_bytes), "B"},
      {"runner.busy_frac", L.busy_frac, "fraction"},
      {"runner.job_s_p50", L.job_s_p50, "s"},
      {"runner.job_s_p99", L.job_s_p99, "s"},
      {"core.build_s", L.build_s, "s"},
      {"core.run_s", L.run_s, "s"},
      {"core.ns_per_cycle", ratio(L.run_s * 1e9, L.cycles), "ns"},
      {"core.dense_speedup", ratio(L.dense_run_s, L.run_s), "ratio"},
      {"core.executed_cycles", c(L.sched.executed_cycles), "count"},
      {"core.skipped_cycles", c(L.sched.skipped_cycles), "count"},
      {"core.wakeups", c(L.sched.wakeups), "count"},
      {"core.schedules", c(L.sched.schedules), "count"},
      {"traffic.requests", c(L.requests), "count"},
      {"traffic.forks", c(L.forks), "count"},
      {"traffic.source_queue_cy", L.source_queue_cy / n, "cy"},
      {"noc.arbitration_rounds", c(L.noc.arbitration_rounds), "count"},
      {"noc.grants", c(L.noc.grants), "count"},
      {"noc.grants_per_arbitration",
       ratio(c(L.noc.grants), c(L.noc.arbitration_rounds)), "fraction"},
      {"noc.blocked_downstream", c(L.noc.blocked_downstream), "count"},
      {"noc.gss_exclusions", c(L.noc.gss_exclusions), "count"},
      {"noc.stall_downstream_full", c(L.stall_full), "count"},
      {"noc.stall_sink_busy", c(L.stall_sink), "count"},
      {"noc.flits_forwarded", c(L.noc.flits), "count"},
      {"noc.network_cy", L.network_cy / n, "cy"},
      {"memctrl.requests_completed", c(L.engine.requests_completed), "count"},
      {"memctrl.cas_issued", c(L.engine.cas_issued), "count"},
      {"memctrl.act_issued", c(L.engine.act_issued), "count"},
      {"memctrl.pre_issued", c(L.engine.pre_issued), "count"},
      {"memctrl.stall_cycles", c(L.engine.stall_cycles), "count"},
      {"memctrl.dpq_grants", c(L.dpq_grants), "count"},
      {"memctrl.memory_cy", L.memory_cy / n, "cy"},
      {"sdram.commands", c(L.commands), "count"},
      {"sdram.row_hit_frac", ratio(c(L.row_hits), c(L.cas)), "fraction"},
      {"sdram.refreshes", c(L.refreshes), "count"},
      {"sdram.turnarounds", c(L.turnarounds), "count"},
      {"sdram.wasted_beats", c(L.wasted_beats), "count"},
      {"check.overhead_frac", ratio(L.run_s, L.nocheck_run_s) - 1.0,
       "fraction"},
      {"check.events", c(L.check_events), "count"},
      {"obs.events", c(L.obs_events), "count"},
      {"obs.counters_overhead_frac", ratio(L.counters_run_s, L.run_s) - 1.0,
       "fraction"},
      {"bench.trace_overhead_frac", ratio(L.traced_run_s, L.run_s) - 1.0,
       "fraction"},
  };
}

// ---------------------------------------------------------------------------
// Workloads of scenario files, run serially.

struct Round {
  double setup_s = 0.0;  ///< scenario loads + Simulator constructors
  double wall_s = 0.0;   ///< the whole round
  /// Per job, in job order: seconds inside Simulator::run, and the
  /// cycles simulated (warmup + window + drain).
  std::vector<double> run_s;
  std::vector<double> cycles;
};

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

void log_round(std::size_t k, const Round& r) {
  std::fprintf(stderr,
               "perfbench: round %zu: setup %.6f s, run %.6f s, wall %.6f s, "
               "%.0f cy/s\n",
               k, r.setup_s, sum(r.run_s), r.wall_s,
               ratio(sum(r.cycles), sum(r.run_s)));
}

/// The seven end-to-end metrics. Set-up time is a median over rounds.
/// The two rates are totals over the whole run: cycles simulated over
/// seconds inside Simulator::run, and jobs over round wall seconds. The
/// host's speed drifts over tens of seconds, and a total follows the
/// share of the run spent in each phase, where a median over rounds
/// jumps to whichever phase held most rounds. The simulated results
/// repeat exactly for a seed and are averaged over jobs.
std::vector<Metric> end_to_end(const std::vector<Round>& rounds,
                               double utilization, double latency,
                               double priority_latency) {
  std::vector<double> setup;
  double cycles = 0.0, run_s = 0.0, jobs = 0.0, wall_s = 0.0;
  for (const Round& r : rounds) {
    setup.push_back(r.setup_s);
    cycles += sum(r.cycles);
    run_s += sum(r.run_s);
    jobs += static_cast<double>(r.run_s.size());
    wall_s += r.wall_s;
  }
  return {
      {"setup_s", median(setup), "s"},
      {"sim_cycles_per_s", ratio(cycles, run_s), "cy/s"},
      {"jobs_per_s", ratio(jobs, wall_s), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"mem_utilization", utilization, "fraction"},
      {"latency_avg_cy", latency, "cy"},
      {"priority_latency_avg_cy", priority_latency, "cy"},
  };
}

/// Load every input scenario, adding the seconds spent to `load_s`.
std::vector<scenario::Scenario> load_all(const Args& a, SpanRecorder& spans,
                                         SpanRecorder::Id parent,
                                         double& load_s) {
  std::vector<scenario::Scenario> jobs;
  for (const std::string& f : a.inputs) {
    const Scope span(spans, "scenario.load", parent);
    const auto t = Clock::now();
    jobs.push_back(scenario::load_scenario(f));
    load_s += seconds_since(t);
  }
  return jobs;
}

std::vector<Metric> timed_scenarios(const Args& a, Tally& tally) {
  SpanRecorder off(false);
  std::vector<core::Metrics> reference;  // round 0, per job
  std::vector<Round> rounds;
  const auto start = Clock::now();
  do {
    Round r;
    const auto t0 = Clock::now();
    const std::vector<scenario::Scenario> jobs =
        load_all(a, off, 0, r.setup_s);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const RunOut o = run_job(jobs[j].config, off, 0, "");
      r.setup_s += o.build_s;
      r.run_s.push_back(o.run_s);
      r.cycles.push_back(static_cast<double>(o.cycles));
      Problems p;
      perfbench::check_invariants(o.m, p);
      if (rounds.empty()) {
        reference.push_back(o.m);
      } else {
        perfbench::diff_metrics(reference[j], o.m,
                                "round " + std::to_string(rounds.size()), p);
      }
      tally.job(jobs[j].name, p);
    }
    r.wall_s = seconds_since(t0);
    log_round(rounds.size(), r);
    rounds.push_back(r);
  } while (seconds_since(start) < a.seconds);

  double util = 0.0, lat = 0.0, prio = 0.0;
  for (const core::Metrics& m : reference) {
    util += m.utilization;
    lat += m.avg_latency_all();
    prio += m.avg_latency_priority();
  }
  const auto n = static_cast<double>(reference.size());
  return end_to_end(rounds, util / n, lat / n, prio / n);
}

std::vector<Metric> traced_scenarios(const Args& a, Tally& tally,
                                     SpanRecorder& spans) {
  Layers L;
  const Scope root(spans, "workload " + a.workload, 0);
  const std::vector<scenario::Scenario> jobs =
      load_all(a, spans, root.id(), L.load_s);
  L.loads = jobs.size();
  const std::size_t reps = reps_for(jobs.size());
  for (const scenario::Scenario& job : jobs) {
    Problems p;
    traced_job(job.config, job.name, reps, spans, root.id(), L, p);
    tally.job(job.name, p);
  }
  const Scope span(spans, "export", root.id());
  return layer_metrics(L);
}

// ---------------------------------------------------------------------------
// The sweep workload: explore::run_sweep on every hardware thread.

struct SweepRound {
  Round round;
  double load_s = 0.0, expand_s = 0.0, merge_s = 0.0, exec_wall_s = 0.0;
  std::uint64_t rows_bytes = 0;
  std::vector<core::SystemConfig> cfgs;  ///< the benchmark's own expansion
  std::vector<SweepRow> rows;
  std::set<std::uint64_t> failed;  ///< jobs failing a row or Pareto check
  bool finished = false;
};

SweepRound sweep_round(const Args& a, SpanRecorder& spans,
                       SpanRecorder::Id parent) {
  namespace fs = std::filesystem;
  SweepRound s;
  const std::string out = a.work + "/sweep-out";
  fs::remove_all(out);
  const auto t0 = Clock::now();
  explore::SweepSpec spec;
  {
    const Scope span(spans, "scenario.load", parent);
    const auto t = Clock::now();
    spec = explore::load_sweep_spec(a.inputs[0]);
    s.load_s = seconds_since(t);
  }
  {
    const Scope span(spans, "explore.expand", parent);
    const auto t = Clock::now();
    for (std::uint64_t j = 0; j < spec.job_count(); ++j) {
      s.cfgs.push_back(spec.job_config(j));
    }
    s.expand_s = seconds_since(t);
  }
  explore::ExecutorOptions opts;
  opts.out_dir = out;
  opts.jobs = 0;  // every hardware thread
  Clock::time_point last_job = Clock::now();
  // run_sweep calls this under its sink lock, one job at a time.
  s.round.run_s.assign(spec.job_count(), 0.0);
  opts.on_progress = [&](const explore::SweepProgress& p) {
    if (p.job < s.round.run_s.size()) s.round.run_s[p.job] = p.wall_seconds;
    last_job = Clock::now();
  };
  {
    const Scope span(spans, "explore.run_sweep", parent);
    const auto t = Clock::now();
    s.finished = explore::run_sweep(spec, opts).finished;
    const auto done = Clock::now();
    s.exec_wall_s = std::chrono::duration<double>(last_job - t).count();
    s.merge_s = std::chrono::duration<double>(done - last_job).count();
  }
  s.round.wall_s = seconds_since(t0);
  s.round.setup_s = s.load_s + s.expand_s;

  const Scope span(spans, "check", parent);
  if (!s.finished) return s;
  for (const auto& f : fs::directory_iterator(out + "/rows")) {
    s.rows_bytes += f.file_size();
  }
  s.rows = perfbench::read_rows(out + "/merged.jsonl");
  s.failed = perfbench::check_rows(s.rows, spec.job_count());
  const std::set<std::uint64_t> pareto = perfbench::check_pareto(
      s.rows, perfbench::read_pareto_jobs(out + "/pareto.json"));
  s.failed.insert(pareto.begin(), pareto.end());
  s.round.cycles.assign(spec.job_count(), 0.0);
  for (const SweepRow& row : s.rows) {
    if (row.job < s.cfgs.size()) {
      s.round.cycles[row.job] = static_cast<double>(
          s.cfgs[row.job].warmup_cycles + row.measured_cycles +
          row.drained_cycles);
    }
  }
  return s;
}

/// A seeded sample of distinct job indices, in increasing order.
std::vector<std::uint64_t> sample_jobs(std::uint64_t seed,
                                       std::uint64_t total) {
  std::vector<std::uint64_t> idx(total);
  for (std::uint64_t j = 0; j < total; ++j) idx[j] = j;
  std::mt19937_64 rng(seed);
  const std::size_t k = std::min<std::size_t>(kSweepSample, total);
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(idx[i], idx[i + rng() % (total - i)]);
  }
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  return idx;
}

const SweepRow* find_row(const std::vector<SweepRow>& rows,
                         std::uint64_t job) {
  for (const SweepRow& r : rows) {
    if (r.job == job) return &r;
  }
  return nullptr;
}

/// Count one round of the sweep: every expanded job is attempted; a job
/// fails when its row or Pareto membership is wrong, when its row
/// differs from round 0's or, for the sample, when the serial rerun
/// `rerun(job, problems)` disagrees with its row.
template <typename Rerun>
void tally_sweep(const Args& a, SweepRound& s, Tally& tally, Rerun rerun) {
  if (!s.finished) {
    std::fprintf(stderr, "perfbench: sweep did not finish\n");
    tally.correct = false;
    tally.attempted += s.cfgs.size();
    tally.failed += s.cfgs.size();
    return;
  }
  for (const std::uint64_t j : sample_jobs(a.seed, s.cfgs.size())) {
    Problems p;
    const core::Metrics m = rerun(j, p);
    if (const SweepRow* row = find_row(s.rows, j)) {
      perfbench::check_row_matches(*row, m, p);
    }
    if (!p.empty()) {
      s.failed.insert(j);
      Tally::report("sweep job " + std::to_string(j), p);
    }
  }
  if (!s.failed.empty()) {
    std::fprintf(stderr, "perfbench: %zu sweep jobs failed, first %llu\n",
                 s.failed.size(),
                 static_cast<unsigned long long>(*s.failed.begin()));
  }
  tally.attempted += s.cfgs.size();
  tally.failed += std::min<std::uint64_t>(s.failed.size(), s.cfgs.size());
}

std::vector<Metric> timed_sweep(const Args& a, Tally& tally) {
  SpanRecorder off(false);
  std::vector<Round> rounds;
  std::vector<SweepRow> reference;
  const auto start = Clock::now();
  do {
    SweepRound s = sweep_round(a, off, 0);
    if (rounds.empty()) {
      reference = s.rows;
    } else {
      for (const SweepRow& row : s.rows) {
        const SweepRow* ref = find_row(reference, row.job);
        if (ref == nullptr || !(*ref == row)) s.failed.insert(row.job);
      }
    }
    tally_sweep(a, s, tally, [&](std::uint64_t j, Problems& p) {
      RunOut o = run_job(s.cfgs[j], off, 0, "");
      perfbench::check_invariants(o.m, p);
      return o.m;
    });
    log_round(rounds.size(), s.round);
    rounds.push_back(s.round);
  } while (seconds_since(start) < a.seconds);

  double util = 0.0, lat = 0.0, prio = 0.0;
  for (const SweepRow& r : reference) {
    util += r.utilization;
    lat += r.latency_all;
    prio += r.latency_priority;
  }
  const auto n =
      static_cast<double>(std::max<std::size_t>(reference.size(), 1));
  return end_to_end(rounds, util / n, lat / n, prio / n);
}

std::vector<Metric> traced_sweep(const Args& a, Tally& tally,
                                 SpanRecorder& spans) {
  Layers L;
  const Scope root(spans, "workload sweep", 0);
  SweepRound s = sweep_round(a, spans, root.id());
  L.load_s = s.load_s;
  L.loads = 1;
  L.expand_s = s.expand_s;
  L.merge_s = s.merge_s;
  L.rows_bytes = s.rows_bytes;
  const double workers = runner::resolve_jobs(0);
  L.busy_frac = ratio(sum(s.round.run_s), workers * s.exec_wall_s);
  L.job_s_p50 = percentile(s.round.run_s, 50.0);
  L.job_s_p99 = percentile(s.round.run_s, 99.0);
  tally_sweep(a, s, tally, [&](std::uint64_t j, Problems& p) {
    return traced_job(s.cfgs[j], "sweep job " + std::to_string(j),
                      reps_for(kSweepSample), spans, root.id(), L, p);
  });
  const Scope span(spans, "export", root.id());
  return layer_metrics(L);
}

// ---------------------------------------------------------------------------
// Output.

void print_provenance(const Args& a) {
#ifdef ANNOC_DISABLE_CHECKS
  const bool checks = false;
#else
  const bool checks = true;
#endif
  std::printf(
      "{\"provenance\": {\"commit\": %s, \"source_digest\": %s, "
      "\"compiler\": %s, \"build_type\": %s, \"flags\": %s, "
      "\"checks_compiled\": %s, \"obs_compiled\": %s, "
      "\"hardware_threads\": %u, \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d}}\n",
      scenario::json_quote(PERFBENCH_COMMIT).c_str(),
      scenario::json_quote(a.source_digest).c_str(),
      scenario::json_quote(PERFBENCH_COMPILER).c_str(),
      scenario::json_quote(PERFBENCH_BUILD_TYPE).c_str(),
      scenario::json_quote(PERFBENCH_FLAGS).c_str(), checks ? "true" : "false",
      ANNOC_OBS_ENABLED ? "true" : "false", std::thread::hardware_concurrency(),
      scenario::json_quote(a.workload).c_str(),
      static_cast<unsigned long long>(a.seed),
      scenario::json_number(a.seconds).c_str(), a.trace ? 1 : 0);
}

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += t.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted);
  out += ", \"failed\": " + std::to_string(t.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i == 0 ? "" : ", ") + scenario::json_quote(metrics[i].name) +
           ": {\"value\": " + value +
           ", \"unit\": " + scenario::json_quote(metrics[i].unit) + "}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload table2|mesh16|frames_idle|sweep "
                 "--seed N --seconds S --trace 0|1 --work DIR [--spans PATH] "
                 "[--source-digest D] INPUT...\n"
                 "       perfbench --selftest --work DIR\n");
    return 2;
  }
  try {
    if (a.selftest) return perfbench::run_selftest(a.work);
    print_provenance(a);
    std::fflush(stdout);
    Tally tally;
    std::vector<Metric> metrics;
    const bool sweep = a.workload == "sweep";
    if (!a.trace) {
      metrics = sweep ? timed_sweep(a, tally) : timed_scenarios(a, tally);
    } else {
      SpanRecorder spans(true);
      metrics = sweep ? traced_sweep(a, tally, spans)
                      : traced_scenarios(a, tally, spans);
      if (a.spans.empty() || !spans.write(a.spans)) {
        std::fprintf(stderr, "perfbench: cannot write the span file\n");
        tally.correct = false;
      } else {
        std::printf("{\"spans\": %s}\n", scenario::json_quote(a.spans).c_str());
      }
    }
    print_result(tally, metrics);
  } catch (const ParseError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.to_string());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
