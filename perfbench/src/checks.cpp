#include "checks.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "scenario/json.hpp"

namespace perfbench {

namespace {

using annoc::LatencyStat;
using annoc::core::Metrics;
using annoc::scenario::JsonKind;
using annoc::scenario::JsonValue;

/// Visitor for core::for_each_comparable_field: doubles compare by bit
/// pattern, so -0.0 vs 0.0 or a last-bit drift is a difference.
struct Differ {
  const std::string& label;
  Problems& out;

  void note(const std::string& field, const std::string& a,
            const std::string& b) const {
    out.push_back(label + ": " + field + " " + b + " != reference " + a);
  }
  void u64(const std::string& field, std::uint64_t a, std::uint64_t b) const {
    if (a != b) note(field, std::to_string(a), std::to_string(b));
  }
  void f64(const std::string& field, double a, double b) const {
    if (std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b)) {
      note(field, annoc::scenario::json_number(a),
           annoc::scenario::json_number(b));
    }
  }
  void stat(const std::string& field, const LatencyStat& a,
            const LatencyStat& b) const {
    u64(field + ".count", a.count(), b.count());
    f64(field + ".mean", a.mean(), b.mean());
    f64(field + ".min", a.min(), b.min());
    f64(field + ".max", a.max(), b.max());
    u64(field + ".p50", a.p50(), b.p50());
    u64(field + ".p95", a.p95(), b.p95());
    u64(field + ".p99", a.p99(), b.p99());
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double number(const JsonValue& obj, const char* key,
              const std::string& origin) {
  const auto* m = obj.find(key);
  if (m == nullptr || !m->value().is(JsonKind::kNumber)) {
    throw annoc::ParseError(origin, obj.line, obj.column, key,
                            "missing number");
  }
  return m->value().number;
}

std::uint64_t count(const JsonValue& obj, const char* key,
                    const std::string& origin) {
  return static_cast<std::uint64_t>(number(obj, key, origin));
}

/// Better or equal on every objective, better on one.
bool dominates(const SweepRow& a, const SweepRow& b) {
  const bool no_worse = a.latency_all <= b.latency_all &&
                        a.utilization >= b.utilization && a.gates <= b.gates;
  const bool better = a.latency_all < b.latency_all ||
                      a.utilization > b.utilization || a.gates < b.gates;
  return no_worse && better;
}

bool same_objectives(const SweepRow& a, const SweepRow& b) {
  return a.latency_all == b.latency_all && a.utilization == b.utilization &&
         a.gates == b.gates;
}

}  // namespace

void diff_metrics(const Metrics& ref, const Metrics& other,
                  const std::string& label, Problems& out) {
  annoc::core::for_each_comparable_field(ref, other, Differ{label, out});
}

void check_invariants(const Metrics& m, Problems& out) {
  if (m.outstanding_requests != 0) {
    out.push_back(std::to_string(m.outstanding_requests) +
                  " requests still outstanding after the drain");
  }
  if (m.device.reads + m.device.writes != m.engine.cas_issued) {
    out.push_back("device reads+writes " +
                  std::to_string(m.device.reads + m.device.writes) +
                  " != engine cas_issued " +
                  std::to_string(m.engine.cas_issued));
  }
  if (!(m.utilization <= m.raw_utilization && m.raw_utilization <= 1.0)) {
    out.push_back("utilization " + std::to_string(m.utilization) +
                  ", raw " + std::to_string(m.raw_utilization) +
                  " break utilization <= raw <= 1");
  }
}

void check_fork_join(std::uint64_t forks, std::uint64_t joins,
                     Problems& out) {
  if (forks != joins) {
    out.push_back(std::to_string(forks) + " forks but " +
                  std::to_string(joins) + " joins");
  }
}

std::vector<SweepRow> read_rows(const std::string& path) {
  const std::string text = read_file(path);
  std::vector<SweepRow> rows;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const JsonValue v = annoc::scenario::parse_json(line, path);
    SweepRow r;
    r.job = count(v, "job", path);
    r.gates = number(v, "gates", path);
    r.utilization = number(v, "utilization", path);
    r.raw_utilization = number(v, "raw_utilization", path);
    r.latency_all = number(v, "latency_all", path);
    r.latency_priority = number(v, "latency_priority", path);
    r.requests = count(v, "requests", path);
    r.outstanding_requests = count(v, "outstanding_requests", path);
    r.measured_cycles = count(v, "measured_cycles", path);
    r.drained_cycles = count(v, "drained_cycles", path);
    r.activates = count(v, "activates", path);
    r.precharges = count(v, "precharges", path);
    r.auto_precharges = count(v, "auto_precharges", path);
    r.wasted_beats = count(v, "wasted_beats", path);
    rows.push_back(r);
  }
  return rows;
}

std::vector<std::uint64_t> read_pareto_jobs(const std::string& path) {
  const JsonValue doc = annoc::scenario::parse_json(read_file(path), path);
  const auto* frontier = doc.find("frontier");
  if (frontier == nullptr || !frontier->value().is(JsonKind::kArray)) {
    throw annoc::ParseError(path, doc.line, doc.column, "frontier",
                            "missing array");
  }
  std::vector<std::uint64_t> jobs;
  for (const JsonValue& p : frontier->value().array) {
    jobs.push_back(count(p, "job", path));
  }
  return jobs;
}

std::set<std::uint64_t> check_rows(const std::vector<SweepRow>& rows,
                                   std::uint64_t total_jobs) {
  std::set<std::uint64_t> failed;
  std::map<std::uint64_t, std::uint64_t> seen;
  bool have_prev = false;
  std::uint64_t prev = 0;
  for (const SweepRow& r : rows) {
    if (r.job >= total_jobs) {
      failed.insert(r.job);
      continue;
    }
    ++seen[r.job];
    if (have_prev && r.job <= prev) failed.insert(r.job);
    have_prev = true;
    prev = r.job;
    if (r.outstanding_requests != 0 || r.utilization > r.raw_utilization ||
        r.raw_utilization > 1.0) {
      failed.insert(r.job);
    }
  }
  for (std::uint64_t j = 0; j < total_jobs; ++j) {
    const auto it = seen.find(j);
    if (it == seen.end() || it->second != 1) failed.insert(j);
  }
  return failed;
}

std::set<std::uint64_t> check_pareto(
    const std::vector<SweepRow>& rows,
    const std::vector<std::uint64_t>& frontier) {
  // Quadratic on purpose: the simplest statement of the definition,
  // independent of explore::pareto_frontier's sort-based pass.
  std::set<std::uint64_t> expected;
  for (const SweepRow& a : rows) {
    bool kept = true;
    for (const SweepRow& b : rows) {
      if (dominates(b, a) || (same_objectives(a, b) && b.job < a.job)) {
        kept = false;
        break;
      }
    }
    if (kept) expected.insert(a.job);
  }
  std::set<std::uint64_t> listed;
  std::set<std::uint64_t> failed;
  for (const std::uint64_t j : frontier) {
    if (!listed.insert(j).second) failed.insert(j);  // listed twice
  }
  std::set_symmetric_difference(expected.begin(), expected.end(),
                                listed.begin(), listed.end(),
                                std::inserter(failed, failed.end()));
  return failed;
}

void check_row_matches(const SweepRow& row, const Metrics& m,
                       Problems& out) {
  const auto exact = [&](const char* field, std::uint64_t got,
                         std::uint64_t want) {
    if (got != want) {
      out.push_back(std::string("row ") + field + " " + std::to_string(got) +
                    " != rerun " + std::to_string(want));
    }
  };
  // The rows print utilization with 4 decimals and latency with 2.
  const auto rounded = [&](const char* field, double got, double want,
                           double half_ulp) {
    if (!(std::fabs(got - want) <= half_ulp * 1.000001)) {
      out.push_back(std::string("row ") + field + " " +
                    annoc::scenario::json_number(got) + " != rerun " +
                    annoc::scenario::json_number(want));
    }
  };
  exact("requests", row.requests, m.completed_requests);
  exact("outstanding_requests", row.outstanding_requests,
        m.outstanding_requests);
  exact("measured_cycles", row.measured_cycles, m.measured_cycles);
  exact("drained_cycles", row.drained_cycles, m.drained_cycles);
  exact("activates", row.activates, m.device.activates);
  exact("precharges", row.precharges, m.device.precharges);
  exact("auto_precharges", row.auto_precharges, m.device.auto_precharges);
  exact("wasted_beats", row.wasted_beats, m.device.wasted_beats());
  rounded("utilization", row.utilization, m.utilization, 0.5e-4);
  rounded("raw_utilization", row.raw_utilization, m.raw_utilization, 0.5e-4);
  rounded("latency_all", row.latency_all, m.avg_latency_all(), 0.5e-2);
  rounded("latency_priority", row.latency_priority, m.avg_latency_priority(),
          0.5e-2);
}

}  // namespace perfbench
