// Streaming NDJSON report sink: one JSON object per line per pipeline
// event, written as the event is scored — nothing is buffered, so a 10k-user
// fleet run streams to disk in O(1) memory exactly like the in-process
// accumulator sinks.
//
// Record schema (field order fixed; numbers carry full round-trip
// precision, so downstream aggregation reproduces the in-process doubles
// bit-for-bit — pinned by tests/json_sink_test.cpp):
//
//   {"type":"group","interval":I,"group_id":G,"size":N,"rung":R,
//    "predicted_efficiency":..,"realized_efficiency":..,
//    "predicted_radio_hz":..,"actual_radio_hz":..,
//    "predicted_compute_cycles":..,"actual_compute_cycles":..,
//    "unicast_radio_hz":..,"videos_played":N}
//
//   {"type":"interval","interval":I,"grouped":B,"has_prediction":B,"k":K,
//    "silhouette":..,"ddqn_epsilon":..,"reconstruction_loss":..,
//    "predicted_radio_hz_total":..,"actual_radio_hz_total":..,
//    "predicted_compute_total":..,"actual_compute_total":..,
//    "unicast_radio_hz_total":..,"radio_error":..,"compute_error":..}
//
//   {"type":"handover","interval":I,"shard_a":A,"shard_b":B,
//    "slot_a":SA,"slot_b":SB}
//
//   {"type":"degradation","interval":I,"from_level":L,"to_level":L,
//    "from_name":"..","to_name":"..","latency_ms":..,"deadline_ms":..,
//    "recovering":B}                           (serve mode, core/serve.hpp)
//
//   {"type":"drop","interval":I,"dropped":N,"queue_capacity":C,
//    "queue_size":S}                           (serve mode, core/serve.hpp)
//
// Fleet interval reports arrive once per shard (the ReportSink contract);
// consumers group records by "interval". meta() lets a driver prepend
// arbitrary context records ({"type":"run",...}) to the same stream.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"

namespace dtmsv::core {

class JsonReportSink final : public ReportSink {
 public:
  /// Streams onto `out` (not owned; must outlive the sink). The stream's
  /// failbit is left untouched — call good() / check the stream after the
  /// run for I/O errors.
  explicit JsonReportSink(std::ostream& out);

  void on_group(const GroupReport& group, util::IntervalId interval) override;
  void on_interval(const EpochReport& report) override;
  void on_handover(const HandoverEvent& event) override;
  void on_degradation(const DegradationEvent& event) override;
  void on_drop(const DropEvent& event) override;

  /// Writes one {"type":"meta_type", ...fields} record. Values must already
  /// be JSON literals (use json_string()/json_number() below); field order
  /// follows the vector.
  void meta(const std::string& meta_type,
            const std::vector<std::pair<std::string, std::string>>& fields);

  /// Records written so far, of every type.
  std::size_t record_count() const { return records_; }

 private:
  std::ostream& out_;
  std::size_t records_ = 0;
};

/// JSON string literal with the mandatory escapes (quote, backslash,
/// control characters).
std::string json_string(const std::string& value);
/// JSON number literal with full round-trip precision. Non-finite values
/// (invalid JSON) are emitted as null.
std::string json_number(double value);

}  // namespace dtmsv::core
