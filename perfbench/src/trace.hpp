/// \file trace.hpp
/// Instrumentation of the benchmark's traced pass: spans around each
/// call into a simulator layer, and an event sink that counts what the
/// layers did. Neither is used by the timed pass.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/sink.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Spans kept in memory and written once, as Chrome trace_event JSON
/// (the format obs::PerfettoSink emits; opens in ui.perfetto.dev). A
/// disabled recorder records nothing, so the timed pass pays one branch
/// per span.
class SpanRecorder {
 public:
  /// 0 is "no span": the parent of a root span, and every id a
  /// disabled recorder hands out.
  using Id = std::uint32_t;

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  Id begin(std::string name, Id parent);
  void end(Id id);
  /// Write every span; false when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const;

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string name, Id parent)
        : rec_(rec), id_(rec.begin(std::move(name), parent)) {}
    ~Scope() { rec_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] Id id() const { return id_; }

   private:
    SpanRecorder& rec_;
    Id id_;
  };

 private:
  struct Span {
    std::string name;
    Id parent = 0;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;  ///< span id k lives at index k - 1
};

/// Counts the events one run emits, by kind and where the kind carries
/// a cause. Attached with core::Simulator::attach_sink.
class CountingSink final : public annoc::obs::EventSink {
 public:
  std::uint64_t commands = 0;
  std::uint64_t arbitrations = 0;
  std::uint64_t stalls[annoc::obs::kNumStallCauses] = {};
  std::uint64_t gss_events = 0;  ///< admit, aging and STI-hit events
  std::uint64_t requests = 0;
  std::uint64_t forks = 0;
  std::uint64_t joins = 0;
  std::uint64_t subpackets = 0;
  std::uint64_t dpq_grants = 0;
  std::uint64_t dpq_retires = 0;
  std::uint64_t other = 0;  ///< fault and watchdog events

  /// Every event seen.
  [[nodiscard]] std::uint64_t total() const;
  /// Events of the kinds the check layer consumes: SDRAM commands
  /// (timing oracle), arbitration, fork, join and subpacket records
  /// (conservation checker).
  [[nodiscard]] std::uint64_t checked() const {
    return commands + arbitrations + forks + joins + subpackets;
  }

  void on_command(const annoc::obs::SdramCommandEvent&) override {
    ++commands;
  }
  void on_arbitration(const annoc::obs::ArbitrationEvent&) override {
    ++arbitrations;
  }
  void on_stall(const annoc::obs::StallEvent& e) override {
    ++stalls[static_cast<std::size_t>(e.cause)];
  }
  void on_gss_admit(const annoc::obs::GssAdmitEvent&) override {
    ++gss_events;
  }
  void on_gss_aging(const annoc::obs::GssAgingEvent&) override {
    ++gss_events;
  }
  void on_gss_sti_hit(const annoc::obs::GssStiHitEvent&) override {
    ++gss_events;
  }
  void on_request(const annoc::obs::RequestEvent&) override { ++requests; }
  void on_fork(const annoc::obs::ForkEvent&) override { ++forks; }
  void on_join(const annoc::obs::JoinEvent&) override { ++joins; }
  void on_subpacket(const annoc::obs::SubpacketRecord&) override {
    ++subpackets;
  }
  void on_dpq_grant(const annoc::obs::DpqGrantEvent&) override {
    ++dpq_grants;
  }
  void on_dpq_retire(const annoc::obs::DpqRetireEvent&) override {
    ++dpq_retires;
  }
  void on_fault(const annoc::obs::FaultEvent&) override { ++other; }
  void on_watchdog(const annoc::obs::WatchdogEvent&) override { ++other; }
};

}  // namespace perfbench
