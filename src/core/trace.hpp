/// \file trace.hpp
/// Per-packet lifecycle tracing.
///
/// When `SystemConfig::trace_path` is set, the simulator writes one CSV
/// row per completed subpacket with every lifecycle timestamp — the
/// raw material for latency-breakdown plots, scheduling forensics, or
/// validating the model against an RTL trace.
///
/// The writer is an obs::EventSink: it consumes the SubpacketRecord
/// stream the simulator emits at completion time, making the CSV trace
/// one sink among several (counters, Perfetto) on the same event hub.
/// Rows that cannot be written (the file failed to open, or the disk
/// filled mid-run) are counted in dropped_rows() and surfaced as
/// Metrics::trace_dropped_rows instead of vanishing silently.
#pragma once

#include <cstdio>
#include <string>

#include "common/types.hpp"
#include "noc/packet.hpp"
#include "obs/sink.hpp"

namespace annoc::core {

/// Flatten a completed packet into the plain-data record the sinks
/// consume; `done` is its final completion cycle (SDRAM service, or
/// response delivery when the response path is modelled), `channel`
/// the controller that served it (0 in single-controller fabrics).
[[nodiscard]] obs::SubpacketRecord to_record(const noc::Packet& pkt,
                                             Cycle done,
                                             std::uint32_t channel = 0);

class TraceWriter final : public obs::EventSink {
 public:
  /// Opens `path` for writing and emits the CSV header. Throws nothing;
  /// check ok() — a simulation should not die because /tmp filled up.
  explicit TraceWriter(const std::string& path);
  ~TraceWriter() override;

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  [[nodiscard]] bool ok() const { return file_ != nullptr; }
  [[nodiscard]] std::uint64_t rows_written() const { return rows_; }
  /// Rows lost to an unwritable file (see Metrics::trace_dropped_rows).
  [[nodiscard]] std::uint64_t dropped_rows() const { return dropped_; }

  /// Write one row. Asserts the record's lifecycle is ordered
  /// (done >= injected >= created); counts the row as dropped when the
  /// file is unwritable.
  void record(const obs::SubpacketRecord& r);

  [[nodiscard]] std::uint32_t interests() const override {
    return obs::event_bit(obs::EventKind::kSubpacket);
  }
  void on_subpacket(const obs::SubpacketRecord& r) override { record(r); }
  void finish(Cycle end) override {
    (void)end;
    flush();
  }

  /// Flush buffered rows to disk.
  void flush();

  /// The CSV header, exposed so readers can validate the schema.
  static const char* header();

 private:
  std::FILE* file_ = nullptr;
  std::uint64_t rows_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace annoc::core
