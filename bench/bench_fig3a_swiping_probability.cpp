// FIG3A — reproduces Fig. 3(a) of the paper: the cumulative swiping
// probability per video category for "multicast group 1" (the group that
// watches News most and Game least).
//
// The paper's claim to reproduce: the category the group prefers most
// (News) shows the lowest cumulative swiping probability at every watch
// fraction (members stay with the clip), while the least-preferred (Game)
// swipes away earliest.
//
// Output: one row per watch-fraction grid point, one column per category —
// the series Fig. 3(a) plots.
#include <iostream>

#include "bench_common.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace dtmsv;
  const std::string csv_path = argc > 1 ? argv[1] : "";

  core::SchemeConfig config = bench::paper_config(/*seed=*/2023);
  core::Simulation sim(config);

  // Warm up long enough for twins to accumulate watch history and groups to
  // stabilise (the paper reports after its scheme has observed the users).
  std::cout << "warming up 12 reservation intervals (simulated 60 min)...\n";
  core::ReportSink discard;
  sim.run(12, discard);

  // "Multicast group 1": the group most attached to News content.
  const std::size_t group = sim.most_preferring_group(video::Category::kNews);
  const auto& pref = sim.group_preference(group);
  std::cout << "group " << group << " of " << sim.group_count() << " ("
            << sim.group_members(group).size() << " members) — preference:";
  for (std::size_t c = 0; c < video::kCategoryCount; ++c) {
    std::cout << ' ' << video::to_string(video::all_categories()[c]) << '='
              << util::fixed(pref[c], 2);
  }
  std::cout << '\n';

  const auto& swiping = sim.group_swiping(group);

  std::vector<std::string> header = {"watch fraction"};
  for (const auto c : video::all_categories()) {
    header.push_back(video::to_string(c));
  }
  util::Table table(header);
  util::CsvWriter csv;
  csv.set_header(header);
  for (double t = 0.1; t <= 1.0 + 1e-9; t += 0.1) {
    std::vector<std::string> row = {util::fixed(t, 1)};
    std::vector<double> csv_row = {t};
    for (const auto c : video::all_categories()) {
      const double cdf = swiping.cumulative_swipe_probability(c, t);
      row.push_back(util::fixed(cdf, 3));
      csv_row.push_back(cdf);
    }
    table.add_row(std::move(row));
    csv.add_row(csv_row);
  }
  table.print("Fig. 3(a): cumulative swiping probability, multicast group 1");
  if (!csv_path.empty()) {
    csv.write_file(csv_path);
    std::cout << "series exported to " << csv_path << '\n';
  }

  // Shape check vs the paper: News (most watched) swipes latest, Game
  // (least watched) earliest — compare the curves at mid-watch.
  const double news =
      swiping.cumulative_swipe_probability(video::Category::kNews, 0.5);
  const double game =
      swiping.cumulative_swipe_probability(video::Category::kGame, 0.5);
  std::cout << "\nat watch fraction 0.5: News CDF = " << util::fixed(news, 3)
            << ", Game CDF = " << util::fixed(game, 3) << " — "
            << (news < game ? "matches the paper (News watched most, Game least)"
                            : "SHAPE MISMATCH vs paper")
            << '\n';

  // Expected engagement per category (drives the traffic prediction).
  util::Table engagement({"category", "E[watch fraction]", "E[max watch | group]"});
  for (const auto c : video::all_categories()) {
    engagement.add_row(
        {video::to_string(c), util::fixed(swiping.expected_watch_fraction(c), 3),
         util::fixed(swiping.expected_max_watch_fraction(
                         c, sim.group_members(group).size()),
                     3)});
  }
  engagement.print("group engagement abstraction");
  return 0;
}
