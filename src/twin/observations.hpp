// Observation records stored in a user digital twin's columns
// (TwinColumnStore, twin/columns.hpp): channel condition, finished views,
// and the normalisation constants feature extraction applies.
#pragma once

#include <cstddef>
#include <cstdint>

#include "video/catalog.hpp"

namespace dtmsv::twin {

/// Channel observation stored in the twin.
struct ChannelObservation {
  double snr_db = 0.0;
  double efficiency_bps_hz = 0.0;
  std::size_t serving_bs = 0;
};

/// Watch observation: one finished view.
struct WatchObservation {
  std::uint64_t video_id = 0;
  video::Category category = video::Category::kNews;
  double duration_s = 0.0;
  double watch_seconds = 0.0;
  double watch_fraction = 0.0;
  bool completed = false;
};

/// Normalisation constants for feature extraction (so embeddings are
/// scale-free regardless of campus size or SNR range).
struct FeatureScaling {
  double pos_x_scale = 1200.0;  // campus width in metres
  double pos_y_scale = 1000.0;  // campus height
  double snr_offset_db = 10.0;  // maps snr -10 dB -> 0
  double snr_scale_db = 40.0;   // maps snr  30 dB -> 1
};

}  // namespace dtmsv::twin
