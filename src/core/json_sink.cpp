#include "core/json_sink.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "util/csv.hpp"

namespace dtmsv::core {

namespace {

void field(std::string& line, const char* key, const std::string& value) {
  line += line.empty() ? "{\"" : ",\"";
  line += key;
  line += "\":";
  line += value;
}

void field(std::string& line, const char* key, double value) {
  field(line, key, json_number(value));
}

void field(std::string& line, const char* key, std::size_t value) {
  field(line, key, std::to_string(value));
}

void field(std::string& line, const char* key, bool value) {
  field(line, key, std::string(value ? "true" : "false"));
}

}  // namespace

std::string json_string(const std::string& value) {
  std::string out;
  out.reserve(value.size() + 2);
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  return util::format_double(value);
}

JsonReportSink::JsonReportSink(std::ostream& out) : out_(out) {}

void JsonReportSink::on_group(const GroupReport& g, util::IntervalId interval) {
  std::string line;
  field(line, "type", json_string("group"));
  field(line, "interval", std::to_string(interval));
  field(line, "group_id", g.group_id);
  field(line, "size", g.size);
  field(line, "rung", g.rung);
  field(line, "predicted_efficiency", g.predicted_efficiency);
  field(line, "realized_efficiency", g.realized_efficiency);
  field(line, "predicted_radio_hz", g.predicted_radio_hz);
  field(line, "actual_radio_hz", g.actual_radio_hz);
  field(line, "predicted_compute_cycles", g.predicted_compute_cycles);
  field(line, "actual_compute_cycles", g.actual_compute_cycles);
  field(line, "unicast_radio_hz", g.unicast_radio_hz);
  field(line, "videos_played", g.videos_played);
  out_ << line << "}\n";
  ++records_;
}

void JsonReportSink::on_interval(const EpochReport& r) {
  std::string line;
  field(line, "type", json_string("interval"));
  field(line, "interval", std::to_string(r.interval));
  field(line, "grouped", r.grouped);
  field(line, "has_prediction", r.has_prediction);
  field(line, "k", r.k);
  field(line, "silhouette", r.silhouette);
  field(line, "ddqn_epsilon", r.ddqn_epsilon);
  field(line, "reconstruction_loss", r.reconstruction_loss);
  field(line, "predicted_radio_hz_total", r.predicted_radio_hz_total);
  field(line, "actual_radio_hz_total", r.actual_radio_hz_total);
  field(line, "predicted_compute_total", r.predicted_compute_total);
  field(line, "actual_compute_total", r.actual_compute_total);
  field(line, "unicast_radio_hz_total", r.unicast_radio_hz_total);
  field(line, "radio_error", r.radio_error);
  field(line, "compute_error", r.compute_error);
  out_ << line << "}\n";
  ++records_;
}

void JsonReportSink::on_handover(const HandoverEvent& e) {
  std::string line;
  field(line, "type", json_string("handover"));
  field(line, "interval", std::to_string(e.interval));
  field(line, "shard_a", e.shard_a);
  field(line, "shard_b", e.shard_b);
  field(line, "slot_a", e.slot_a);
  field(line, "slot_b", e.slot_b);
  out_ << line << "}\n";
  ++records_;
}

void JsonReportSink::on_degradation(const DegradationEvent& e) {
  std::string line;
  field(line, "type", json_string("degradation"));
  field(line, "interval", std::to_string(e.interval));
  field(line, "from_level", e.from_level);
  field(line, "to_level", e.to_level);
  field(line, "from_name", json_string(e.from_name));
  field(line, "to_name", json_string(e.to_name));
  field(line, "latency_ms", e.latency_ms);
  field(line, "deadline_ms", e.deadline_ms);
  field(line, "recovering", e.recovering);
  out_ << line << "}\n";
  ++records_;
}

void JsonReportSink::on_drop(const DropEvent& e) {
  std::string line;
  field(line, "type", json_string("drop"));
  field(line, "interval", std::to_string(e.interval));
  field(line, "dropped", std::to_string(e.dropped));
  field(line, "queue_capacity", e.queue_capacity);
  field(line, "queue_size", e.queue_size);
  out_ << line << "}\n";
  ++records_;
}

void JsonReportSink::meta(
    const std::string& meta_type,
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string line;
  field(line, "type", json_string(meta_type));
  for (const auto& [key, value] : fields) {
    field(line, key.c_str(), value);
  }
  out_ << line << "}\n";
  ++records_;
}

}  // namespace dtmsv::core
