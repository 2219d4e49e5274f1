/// \file checks.hpp
/// Output checks of the benchmark, computed apart from the simulator:
/// each takes a job's outputs and appends a line per problem found. A
/// job with any problem counts as failed; the run goes on. The
/// self-test (selftest.cpp) feeds each check a perturbed input to show
/// it can fail.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/metrics.hpp"

namespace perfbench {

/// What one job's checks found; empty means the job passed.
using Problems = std::vector<std::string>;

/// Every comparable Metrics field (core::for_each_comparable_field)
/// where `other` differs bitwise from the reference `ref`. `label`
/// names the run being compared.
void diff_metrics(const annoc::core::Metrics& ref,
                  const annoc::core::Metrics& other, const std::string& label,
                  Problems& out);

/// One run's internal consistency: nothing left outstanding, every CAS
/// the engine issued reached the device, utilization <= raw <= 1.
void check_invariants(const annoc::core::Metrics& m, Problems& out);

/// Every forked parent request joined again by the end of the run.
void check_fork_join(std::uint64_t forks, std::uint64_t joins,
                     Problems& out);

/// The fields of one merged.jsonl row the checks read.
struct SweepRow {
  std::uint64_t job = 0;
  double gates = 0.0;
  double utilization = 0.0;
  double raw_utilization = 0.0;
  double latency_all = 0.0;
  double latency_priority = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t outstanding_requests = 0;
  std::uint64_t measured_cycles = 0;
  std::uint64_t drained_cycles = 0;
  std::uint64_t activates = 0;
  std::uint64_t precharges = 0;
  std::uint64_t auto_precharges = 0;
  std::uint64_t wasted_beats = 0;

  bool operator==(const SweepRow&) const = default;
};

/// Parse a merged.jsonl file, one row per line, in file order. Throws
/// annoc::ParseError on a malformed row, std::runtime_error when the
/// file cannot be read.
[[nodiscard]] std::vector<SweepRow> read_rows(const std::string& path);

/// The job indices listed in a pareto.json frontier, in file order.
[[nodiscard]] std::vector<std::uint64_t> read_pareto_jobs(
    const std::string& path);

/// Jobs whose row is missing, repeated, out of job order, or breaks a
/// row invariant (outstanding requests, utilization bounds).
[[nodiscard]] std::set<std::uint64_t> check_rows(
    const std::vector<SweepRow>& rows, std::uint64_t total_jobs);

/// Jobs whose membership in `frontier` differs from the Pareto set
/// recomputed here from `rows` (min latency_all, max utilization, min
/// gates; of identical points only the lowest job index is kept).
[[nodiscard]] std::set<std::uint64_t> check_pareto(
    const std::vector<SweepRow>& rows,
    const std::vector<std::uint64_t>& frontier);

/// A serial rerun `m` of the row's job reproduces the row: integer
/// fields exactly, rounded fields to their printed precision.
void check_row_matches(const SweepRow& row, const annoc::core::Metrics& m,
                       Problems& out);

/// Feed every check a real short run, then a perturbed copy; print one
/// line per case. `work_dir` receives a small sweep's outputs. Returns
/// 0 when every check passed its real input and rejected its perturbed
/// one, 1 otherwise.
int run_selftest(const std::string& work_dir);

}  // namespace perfbench
