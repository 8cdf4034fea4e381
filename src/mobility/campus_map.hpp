// Campus geography: a waypoint graph approximating the University of
// Waterloo campus on which the paper initialises users ("Users are initially
// randomly generated in the University of Waterloo campus and then move
// along different trajectories").
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace dtmsv::mobility {

/// Planar position in metres.
struct Position {
  double x = 0.0;
  double y = 0.0;
};

/// Euclidean distance between two positions.
double distance(const Position& a, const Position& b);

/// Named waypoint (building / intersection) in the campus graph.
struct Waypoint {
  std::string name;
  Position position;
  /// Indices of connected waypoints (walkable paths).
  std::vector<std::size_t> neighbors;
};

/// Walkable campus model: a connected waypoint graph inside a bounding box.
class CampusMap {
 public:
  /// Builds the default UWaterloo-like campus: a 1200 m × 1000 m area with
  /// buildings (DC, MC, E7, SLC, PAC, QNC, ...) joined by paths, and base
  /// station sites at fixed coordinates.
  static CampusMap waterloo_campus();

  /// Builds a synthetic grid campus (for tests and scalability benches):
  /// `cols` × `rows` waypoints spaced `spacing` metres apart, 4-connected.
  static CampusMap grid(std::size_t cols, std::size_t rows, double spacing);

  std::size_t waypoint_count() const { return waypoints_.size(); }
  const Waypoint& waypoint(std::size_t i) const;
  const std::vector<Waypoint>& waypoints() const { return waypoints_; }

  double width() const { return width_; }
  double height() const { return height_; }

  /// Base station sites (positions with full campus coverage between them).
  const std::vector<Position>& base_stations() const { return base_stations_; }

  /// Uniformly random position within the bounding box.
  Position random_position(util::Rng& rng) const;

  /// Shortest path (by edge length) between waypoints, inclusive of both
  /// endpoints; empty when disconnected. Dijkstra over the waypoint graph.
  std::vector<std::size_t> shortest_path(std::size_t from, std::size_t to) const;

  /// Validates graph symmetry and connectivity; throws InvariantError if
  /// malformed. Called by the factory functions.
  void validate() const;

 private:
  CampusMap(std::vector<Waypoint> waypoints, std::vector<Position> base_stations,
            double width, double height);

  std::vector<Waypoint> waypoints_;
  std::vector<Position> base_stations_;
  double width_ = 0.0;
  double height_ = 0.0;
};

}  // namespace dtmsv::mobility
