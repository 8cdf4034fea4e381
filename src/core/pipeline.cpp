#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <span>
#include <utility>

#include "clustering/metrics.hpp"
#include "clustering/selectors.hpp"
#include "core/feature_compressor.hpp"
#include "core/group_constructor.hpp"
#include "core/simulation.hpp"
#include "nn/serialize.hpp"
#include "predict/channel_predictor.hpp"
#include "twin/store.hpp"
#include "util/config.hpp"
#include "util/error.hpp"

namespace dtmsv::core {

// ------------------------------------------------------------ TwinSnapshot

twin::WindowBatch TwinSnapshot::feature_windows() const {
  DTMSV_EXPECTS_MSG(twins != nullptr && arena != nullptr,
                    "TwinSnapshot: feature_windows() needs a twin store and the "
                    "Simulation-owned arena");
  return twins->columns().feature_windows({now, window_s, timesteps, scaling},
                                          *arena);
}

twin::SummaryBatch TwinSnapshot::summary_features() const {
  DTMSV_EXPECTS_MSG(twins != nullptr && arena != nullptr,
                    "TwinSnapshot: summary_features() needs a twin store and the "
                    "Simulation-owned arena");
  return twins->columns().summary_features({now, window_s, scaling}, *arena);
}

clustering::Points to_points(const twin::SummaryBatch& batch) {
  clustering::Points points(batch.size(), batch.dim());
  std::copy(batch.data(), batch.data() + batch.size() * batch.dim(), points.data());
  return points;
}

namespace {

// ---------------------------------------------------- built-in FeatureStages

/// The paper's stage: 1D-CNN autoencoder trained online; the bottleneck
/// embedding is the user feature.
class CnnFeatureStage final : public FeatureStage {
 public:
  CnnFeatureStage(const SchemeConfig& config, util::Rng& rng) {
    CompressorConfig cc = config.compressor;
    cc.channels = twin::TwinColumnStore::kFeatureChannels;
    cc.timesteps = config.feature_timesteps;
    compressor_ = std::make_unique<FeatureCompressor>(cc, rng.fork(6).next());
  }

  FeatureOutput extract(const TwinSnapshot& snapshot) override {
    const twin::WindowBatch windows = snapshot.feature_windows();
    FeatureOutput out;
    out.reconstruction_loss = compressor_->fit(windows);
    out.points = compressor_->embed(windows);
    return out;
  }

  bool has_learned_state() const override { return true; }
  void save_state(std::ostream& os) const override {
    nn::save_parameters(compressor_->encoder(), os);
    nn::save_parameters(compressor_->decoder(), os);
  }
  void load_state(std::istream& is) override {
    nn::load_parameters(compressor_->encoder(), is);
    nn::load_parameters(compressor_->decoder(), is);
  }

 private:
  std::unique_ptr<FeatureCompressor> compressor_;
};

/// Ablation: the flattened raw window, no compression.
class RawWindowFeatureStage final : public FeatureStage {
 public:
  FeatureOutput extract(const TwinSnapshot& snapshot) override {
    const twin::WindowBatch windows = snapshot.feature_windows();
    FeatureOutput out;
    if (windows.empty()) {
      return out;
    }
    clustering::Points points(windows.size(), windows.window_size());
    double* rows = points.data();
    const float* flat = windows.data();
    const std::size_t total = windows.size() * windows.window_size();
    for (std::size_t i = 0; i < total; ++i) {
      rows[i] = static_cast<double>(flat[i]);
    }
    out.points = std::move(points);
    return out;
  }
};

/// Ablation: hand-rolled summary statistics per user.
class SummaryStatsFeatureStage final : public FeatureStage {
 public:
  FeatureOutput extract(const TwinSnapshot& snapshot) override {
    FeatureOutput out;
    out.points = to_points(snapshot.summary_features());
    return out;
  }
};

// --------------------------------------------------- built-in GroupingStages

/// The paper's stage: DDQN-empowered K selection + K-means++ clustering with
/// online learning across reservation intervals.
class DdqnGroupingStage final : public GroupingStage {
 public:
  DdqnGroupingStage(const SchemeConfig& config, util::Rng& rng)
      : constructor_(std::make_unique<GroupConstructor>(config.grouping,
                                                        rng.fork(7).next())) {}

  GroupingOutcome group(const clustering::Points& features,
                        util::Rng& rng) override {
    return constructor_->construct(features, rng);
  }

  void report_outcome(double prediction_error) override {
    constructor_->report_outcome(prediction_error);
  }

  bool has_learned_state() const override { return true; }
  void save_state(std::ostream& os) const override {
    nn::save_parameters(constructor_->agent().online_network(), os);
  }
  void load_state(std::istream& is) override {
    nn::load_parameters(constructor_->agent().online_network(), is);
    nn::copy_parameters(constructor_->agent().online_network(),
                        constructor_->agent().target_network());
  }

 private:
  std::unique_ptr<GroupConstructor> constructor_;
};

/// Baseline stages: a K selector (clustering/selectors.hpp) chooses K, then
/// K-means++ and a sampled silhouette — the ablation arms of ABL-CLU behind
/// one adapter.
class SelectorGroupingStage final : public GroupingStage {
 public:
  using SelectK = std::function<std::size_t(const clustering::Points&, util::Rng&)>;

  SelectorGroupingStage(SelectK select_k, const SchemeConfig& config)
      : select_k_(std::move(select_k)),
        kmeans_(config.grouping.kmeans),
        silhouette_sample_cap_(config.grouping.silhouette_sample_cap) {}

  GroupingOutcome group(const clustering::Points& features,
                        util::Rng& rng) override {
    GroupingOutcome out;
    std::size_t k = select_k_(features, rng);
    k = std::clamp<std::size_t>(k, 1, features.size());
    const auto result = clustering::k_means(features, k, rng, kmeans_);
    out.k = k;
    out.assignment = result.assignment;
    out.silhouette = clustering::silhouette_sampled(
        features, out.assignment, silhouette_sample_cap_, rng);
    return out;
  }

 private:
  SelectK select_k_;
  clustering::KMeansOptions kmeans_;
  std::size_t silhouette_sample_cap_;
};

// ----------------------------------------------------- built-in DemandStages

/// The paper's stage: joint min-over-members channel forecast (harmonic
/// mean, unbiased for the multicast accounting) feeding the rung-mixture
/// demand model.
class JointDemandStage final : public DemandStage {
 public:
  explicit JointDemandStage(const SchemeConfig& config)
      : window_s_(config.feature_window_s),
        interval_s_(config.interval_s),
        demand_(config.demand) {}

  GroupDemandForecast predict(const GroupDemandContext& context) override {
    const predict::GroupChannelForecast forecast = predict::forecast_group_channel(
        *context.members, context.now, window_s_, demand_.efficiency_floor);
    GroupDemandForecast out;
    out.efficiency = forecast.efficiency;
    out.demand = predict::predict_group_demand(
        context.members->size(), *context.preference, *context.swiping, forecast,
        *context.playlist_per_category, *context.content, interval_s_, demand_);
    return out;
  }

 private:
  double window_s_;
  double interval_s_;
  predict::DemandModelConfig demand_;
};

/// Ablation: min over per-member forecasts from one predictor
/// (predict/channel_predictor.hpp; optimistically biased —
/// min(E[X_i]) >= E[min X_i]).
class PerMemberDemandStage final : public DemandStage {
 public:
  PerMemberDemandStage(predict::MemberPredictor predictor, const SchemeConfig& config)
      : predictor_(predictor),
        window_s_(config.feature_window_s),
        interval_s_(config.interval_s),
        demand_(config.demand) {}

  GroupDemandForecast predict(const GroupDemandContext& context) override {
    predict::GroupChannelForecast forecast;
    forecast.efficiency = predict::predict_group_efficiency(
        *context.members, predictor_, context.now, window_s_,
        demand_.efficiency_floor);
    forecast.min_series = {forecast.efficiency};
    GroupDemandForecast out;
    out.efficiency = forecast.efficiency;
    out.demand = predict::predict_group_demand(
        context.members->size(), *context.preference, *context.swiping, forecast,
        *context.playlist_per_category, *context.content, interval_s_, demand_);
    return out;
  }

 private:
  predict::MemberPredictor predictor_;
  double window_s_;
  double interval_s_;
  predict::DemandModelConfig demand_;
};

}  // namespace

// ----------------------------------------------------------------- registry

struct StageRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, FeatureFactory> feature;
  std::map<std::string, GroupingFactory> grouping;
  std::map<std::string, DemandFactory> demand;

  template <typename Map, typename Factory>
  void add(Map& map, const char* kind, const std::string& key, Factory factory) {
    DTMSV_EXPECTS_MSG(!key.empty(), "StageRegistry: empty stage key");
    const std::scoped_lock lock(mutex);
    if (!map.emplace(key, std::move(factory)).second) {
      throw util::RuntimeError(std::string("StageRegistry: duplicate ") + kind +
                               " stage key \"" + key + "\"");
    }
  }

  template <typename Map>
  const typename Map::mapped_type& find(const Map& map, const char* kind,
                                        const std::string& key) const {
    const std::scoped_lock lock(mutex);
    const auto it = map.find(key);
    if (it == map.end()) {
      throw util::RuntimeError(std::string("unknown ") + kind + " stage '" + key +
                               "' (known: " + util::join(keys_of(map)) + ")");
    }
    return it->second;
  }

  template <typename Map>
  static std::vector<std::string> keys_of(const Map& map) {
    std::vector<std::string> keys;
    keys.reserve(map.size());
    for (const auto& [key, factory] : map) {
      keys.push_back(key);
    }
    return keys;  // std::map iteration is already sorted
  }
};

StageRegistry::StageRegistry() : impl_(std::make_unique<Impl>()) {}
StageRegistry::~StageRegistry() = default;

StageRegistry& StageRegistry::instance() {
  static StageRegistry& registry = []() -> StageRegistry& {
    static StageRegistry r;
    r.register_feature("cnn", [](const SchemeConfig& config, util::Rng& rng) {
      return std::make_unique<CnnFeatureStage>(config, rng);
    });
    r.register_feature("raw", [](const SchemeConfig&, util::Rng&) {
      return std::make_unique<RawWindowFeatureStage>();
    });
    r.register_feature("summary", [](const SchemeConfig&, util::Rng&) {
      return std::make_unique<SummaryStatsFeatureStage>();
    });

    r.register_grouping("ddqn", [](const SchemeConfig& config, util::Rng& rng) {
      return std::make_unique<DdqnGroupingStage>(config, rng);
    });
    r.register_grouping("fixed", [](const SchemeConfig& config, util::Rng&) {
      DTMSV_EXPECTS(config.fixed_k >= 1);
      return std::make_unique<SelectorGroupingStage>(
          [k = config.fixed_k](const clustering::Points& points, util::Rng&) {
            return clustering::fixed_k(points, k);
          },
          config);
    });
    r.register_grouping("elbow", [](const SchemeConfig& config, util::Rng&) {
      return std::make_unique<SelectorGroupingStage>(
          [lo = config.grouping.k_min, hi = config.grouping.k_max](
              const clustering::Points& points, util::Rng& rng) {
            return clustering::elbow_k(points, lo, hi, rng);
          },
          config);
    });
    r.register_grouping("random", [](const SchemeConfig& config, util::Rng&) {
      return std::make_unique<SelectorGroupingStage>(
          [lo = config.grouping.k_min, hi = config.grouping.k_max](
              const clustering::Points& points, util::Rng& rng) {
            return clustering::random_k(points, lo, hi, rng);
          },
          config);
    });
    r.register_grouping("silhouette", [](const SchemeConfig& config, util::Rng&) {
      return std::make_unique<SelectorGroupingStage>(
          [lo = config.grouping.k_min, hi = config.grouping.k_max](
              const clustering::Points& points, util::Rng& rng) {
            return clustering::silhouette_sweep_k(points, lo, hi, rng);
          },
          config);
    });

    r.register_demand("joint", [](const SchemeConfig& config, util::Rng&) {
      return std::make_unique<JointDemandStage>(config);
    });
    // The per-member predictors run at their default tuning (EWMA alpha
    // 0.3, trend horizon 150 s).
    const auto per_member = [](predict::MemberPredictor predictor) {
      return [predictor](const SchemeConfig& config, util::Rng&) {
        return std::make_unique<PerMemberDemandStage>(predictor, config);
      };
    };
    r.register_demand("last_value", per_member(&predict::last_value_efficiency));
    r.register_demand("ewma", per_member([](const twin::ChannelColumn& channel,
                                            auto... args) {
      return predict::ewma_efficiency(channel, args...);
    }));
    r.register_demand("linear_trend", per_member([](const twin::ChannelColumn& channel,
                                                    auto... args) {
      return predict::linear_trend_efficiency(channel, args...);
    }));
    r.register_demand("mean", per_member(&predict::mean_efficiency));
    return r;
  }();
  return registry;
}

void StageRegistry::register_feature(const std::string& key, FeatureFactory factory) {
  impl_->add(impl_->feature, "feature", key, std::move(factory));
}
void StageRegistry::register_grouping(const std::string& key, GroupingFactory factory) {
  impl_->add(impl_->grouping, "grouping", key, std::move(factory));
}
void StageRegistry::register_demand(const std::string& key, DemandFactory factory) {
  impl_->add(impl_->demand, "demand", key, std::move(factory));
}

bool StageRegistry::has_feature(const std::string& key) const {
  const std::scoped_lock lock(impl_->mutex);
  return impl_->feature.count(key) > 0;
}
bool StageRegistry::has_grouping(const std::string& key) const {
  const std::scoped_lock lock(impl_->mutex);
  return impl_->grouping.count(key) > 0;
}
bool StageRegistry::has_demand(const std::string& key) const {
  const std::scoped_lock lock(impl_->mutex);
  return impl_->demand.count(key) > 0;
}

void StageRegistry::require_feature(const std::string& key) const {
  impl_->find(impl_->feature, "feature", key);
}
void StageRegistry::require_grouping(const std::string& key) const {
  impl_->find(impl_->grouping, "grouping", key);
}
void StageRegistry::require_demand(const std::string& key) const {
  impl_->find(impl_->demand, "demand", key);
}

std::unique_ptr<FeatureStage> StageRegistry::make_feature(const std::string& key,
                                                          const SchemeConfig& config,
                                                          util::Rng& rng) const {
  return impl_->find(impl_->feature, "feature", key)(config, rng);
}
std::unique_ptr<GroupingStage> StageRegistry::make_grouping(const std::string& key,
                                                            const SchemeConfig& config,
                                                            util::Rng& rng) const {
  return impl_->find(impl_->grouping, "grouping", key)(config, rng);
}
std::unique_ptr<DemandStage> StageRegistry::make_demand(const std::string& key,
                                                        const SchemeConfig& config,
                                                        util::Rng& rng) const {
  return impl_->find(impl_->demand, "demand", key)(config, rng);
}

std::vector<std::string> StageRegistry::feature_keys() const {
  const std::scoped_lock lock(impl_->mutex);
  return Impl::keys_of(impl_->feature);
}
std::vector<std::string> StageRegistry::grouping_keys() const {
  const std::scoped_lock lock(impl_->mutex);
  return Impl::keys_of(impl_->grouping);
}
std::vector<std::string> StageRegistry::demand_keys() const {
  const std::scoped_lock lock(impl_->mutex);
  return Impl::keys_of(impl_->demand);
}

// ----------------------------------------------------------- key resolution

std::string feature_stage_key(const SchemeConfig& config) {
  DTMSV_EXPECTS_MSG(!config.feature_stage.empty(),
                    "SchemeConfig::feature_stage must name a registry key");
  return config.feature_stage;
}

std::string grouping_stage_key(const SchemeConfig& config) {
  DTMSV_EXPECTS_MSG(!config.grouping_stage.empty(),
                    "SchemeConfig::grouping_stage must name a registry key");
  return config.grouping_stage;
}

std::string demand_stage_key(const SchemeConfig& config) {
  DTMSV_EXPECTS_MSG(!config.demand_stage.empty(),
                    "SchemeConfig::demand_stage must name a registry key");
  return config.demand_stage;
}

// ------------------------------------------------------ interval prediction

double monotonic_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<GroupForecast> predict_interval(
    const TwinSnapshot& snapshot, const SchemeConfig& config, FeatureStage& feature,
    GroupingStage& grouping, DemandStage& demand, util::Rng& cluster_rng,
    const video::Catalog& catalog, const analysis::PopularityAnalyzer& popularity,
    const predict::ContentStats& content, EpochReport& report, StageTimings& timings) {
  const double t_feature = monotonic_s();
  const FeatureOutput features = feature.extract(snapshot);
  report.reconstruction_loss = features.reconstruction_loss;

  const double t_grouping = monotonic_s();
  const GroupingOutcome outcome = grouping.group(features.points, cluster_rng);
  report.k = outcome.k;
  report.silhouette = outcome.silhouette;
  report.ddqn_epsilon = outcome.epsilon;

  const double t_demand = monotonic_s();
  const clustering::ClusterMembers by_group =
      clustering::members_by_cluster(outcome.assignment, outcome.k);
  std::vector<GroupForecast> groups;
  std::vector<const twin::UserDigitalTwin*> member_twins;
  for (std::size_t g = 0; g < outcome.k; ++g) {
    const std::span<const std::size_t> ids = by_group.of(g);
    if (ids.empty()) {
      continue;  // K-means re-seeding should prevent this, but stay safe
    }
    GroupForecast& group = groups.emplace_back();
    group.cluster = g;
    group.members.assign(ids.begin(), ids.end());
    member_twins.clear();
    for (const std::size_t u : ids) {
      member_twins.push_back(&snapshot.twins->twin(u));
    }

    group.swiping = analysis::build_group_swiping(member_twins, snapshot.now,
                                                  snapshot.window_s, config.swiping_bins,
                                                  config.swiping_forgetting);
    group.preference = analysis::aggregate_group_preference(member_twins);
    group.recommendation =
        analysis::recommend(catalog, popularity, group.preference, config.recommender);

    GroupDemandContext context;
    context.members = &member_twins;
    context.preference = &group.preference;
    context.swiping = &group.swiping;
    context.playlist_per_category = &group.recommendation.per_category_counts;
    context.content = &content;
    context.now = snapshot.now;
    group.forecast = demand.predict(context);
  }
  const double t_end = monotonic_s();
  timings.feature_s += t_grouping - t_feature;
  timings.grouping_s += t_demand - t_grouping;
  timings.demand_s += t_end - t_demand;
  return groups;
}

}  // namespace dtmsv::core
