// Unit tests for intooa::gp — kernels, the continuous GP regressor, the
// shared-kernel JointGp, the WL-GP over graphs (including the analytic
// feature gradient of Eq. 5) and the wEI acquisition.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <set>
#include <span>

#include "circuit/circuit_graph.hpp"
#include "circuit/topology.hpp"
#include "core/optimizer.hpp"
#include "gp/acquisition.hpp"
#include "gp/fit_cache.hpp"
#include "gp/gp.hpp"
#include "gp/joint_gp.hpp"
#include "gp/kernel.hpp"
#include "gp/wlgp.hpp"
#include "graph/wl.hpp"
#include "la/cholesky.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace intooa;
using namespace intooa::gp;

TEST(Kernel, RbfValues) {
  const RbfKernel k(1.0, 2.0);
  const std::vector<double> x = {0.0, 0.0};
  const std::vector<double> y = {1.0, 0.0};
  EXPECT_DOUBLE_EQ(k(x, x), 2.0);
  EXPECT_NEAR(k(x, y), 2.0 * std::exp(-0.5), 1e-12);
  EXPECT_DOUBLE_EQ(k(x, y), k(y, x));
  EXPECT_THROW(k(x, std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(RbfKernel(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(RbfKernel(1.0, 0.0), std::invalid_argument);
}

TEST(Kernel, Matern52Values) {
  const Matern52Kernel k(0.5, 1.0);
  const std::vector<double> x = {0.0};
  EXPECT_DOUBLE_EQ(k(x, x), 1.0);
  const std::vector<double> y = {0.5};
  EXPECT_GT(k(x, y), 0.0);
  EXPECT_LT(k(x, y), 1.0);
  EXPECT_EQ(k.name(), "matern52");
}

TEST(Kernel, GramMatrixIsPsd) {
  util::Rng rng(31);
  const RbfKernel k(0.5, 1.0);
  const std::size_t n = 12;
  std::vector<std::vector<double>> xs(n, std::vector<double>(3));
  for (auto& x : xs) {
    for (auto& v : x) v = rng.uniform();
  }
  la::MatrixD gram(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) gram(i, j) = k(xs[i], xs[j]);
  }
  // PSD check: Cholesky with tiny jitter succeeds.
  EXPECT_NO_THROW(la::Cholesky{gram});
}

TEST(GpRegressor, InterpolatesTrainingData) {
  util::Rng rng(32);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 15; ++i) {
    const double x = rng.uniform();
    xs.push_back({x});
    ys.push_back(std::sin(6.0 * x));
  }
  GpRegressor gp;
  gp.fit(xs, ys);
  EXPECT_TRUE(gp.trained());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const Prediction p = gp.predict(xs[i]);
    EXPECT_NEAR(p.mean, ys[i], 0.05);
    EXPECT_LT(p.variance, 0.05);
  }
}

TEST(GpRegressor, VarianceGrowsAwayFromData) {
  GpRegressor gp;
  gp.fit({{0.1}, {0.2}, {0.3}}, std::vector<double>{1.0, 2.0, 3.0});
  const double var_near = gp.predict(std::vector<double>{0.2}).variance;
  const double var_far = gp.predict(std::vector<double>{0.9}).variance;
  EXPECT_GT(var_far, var_near);
}

TEST(GpRegressor, ConstantTargetsHandled) {
  GpRegressor gp;
  gp.fit({{0.1}, {0.5}, {0.9}}, std::vector<double>{2.0, 2.0, 2.0});
  const Prediction p = gp.predict(std::vector<double>{0.3});
  EXPECT_NEAR(p.mean, 2.0, 1e-6);
}

TEST(GpRegressor, InputValidation) {
  GpRegressor gp;
  EXPECT_THROW(gp.fit({{0.1}}, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(gp.fit({{0.1}, {0.2, 0.3}}, std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(gp.predict(std::vector<double>{0.0}), std::logic_error);
}

TEST(JointGp, MatchesSingleOutputBehaviour) {
  util::Rng rng(33);
  std::vector<std::vector<double>> xs;
  std::vector<std::vector<double>> ys;
  std::vector<double> y_flat;
  for (int i = 0; i < 12; ++i) {
    const double x = rng.uniform();
    xs.push_back({x});
    const double y = std::cos(4.0 * x);
    ys.push_back({y});
    y_flat.push_back(y);
  }
  JointGp joint;
  joint.fit(xs, ys, true);
  GpRegressor single;
  single.fit(xs, y_flat);
  for (double q : {0.05, 0.35, 0.75}) {
    const auto jp = joint.predict(std::vector<double>{q});
    const auto sp = single.predict(std::vector<double>{q});
    EXPECT_NEAR(jp.mean[0], sp.mean, 0.15);
  }
}

TEST(JointGp, SharedVarianceScaledPerOutput) {
  // Two outputs with different scales: identical standardized variance,
  // different raw variance.
  std::vector<std::vector<double>> xs = {{0.1}, {0.4}, {0.7}};
  std::vector<std::vector<double>> ys = {{1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}};
  JointGp joint;
  joint.fit(xs, ys, true);
  const auto p = joint.predict(std::vector<double>{0.95});
  EXPECT_GT(p.variance[1], p.variance[0]);
  EXPECT_NEAR(p.variance[1] / p.variance[0], 100.0, 1.0);
}

TEST(JointGp, HyperReuseWithoutRefit) {
  std::vector<std::vector<double>> xs = {{0.1}, {0.4}, {0.7}};
  std::vector<std::vector<double>> ys = {{1.0}, {2.0}, {3.0}};
  JointGp joint;
  joint.fit(xs, ys, true);
  const auto hyper = joint.hyper();
  xs.push_back({0.9});
  ys.push_back({4.0});
  joint.fit(xs, ys, false);  // reuse hypers
  EXPECT_EQ(joint.hyper().lengthscale, hyper.lengthscale);
  EXPECT_EQ(joint.size(), 4u);
}

TEST(JointGp, Validation) {
  JointGp joint;
  EXPECT_THROW(joint.fit({{0.1}}, {{1.0}}, true), std::invalid_argument);
  EXPECT_THROW(joint.fit({{0.1}, {0.2}}, {{1.0}, {1.0, 2.0}}, true),
               std::invalid_argument);
}

graph::Graph make_chain(const std::vector<std::string>& labels) {
  graph::Graph g;
  for (const auto& l : labels) g.add_node(l);
  for (std::size_t i = 0; i + 1 < labels.size(); ++i) {
    g.add_edge(i, i + 1);
  }
  return g;
}

TEST(WlGp, FitsAndInterpolatesGraphTargets) {
  auto feat = std::make_shared<graph::WlFeaturizer>(3);
  WlGpConfig config;
  config.max_h = 3;
  WlGp gp(feat, config);

  // Target = number of "B" nodes (a depth-0-expressible function).
  std::vector<graph::Graph> graphs;
  std::vector<double> targets;
  const std::vector<std::vector<std::string>> specs = {
      {"A", "B"},      {"A", "B", "B"},   {"A", "A"},
      {"B", "B", "B"}, {"A", "B", "A"},   {"B"},
      {"A", "A", "B"}, {"B", "B", "A", "A"},
  };
  for (const auto& s : specs) {
    graphs.push_back(make_chain(s));
    targets.push_back(static_cast<double>(
        std::count(s.begin(), s.end(), std::string("B"))));
  }
  gp.fit(graphs, targets);
  EXPECT_TRUE(gp.trained());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_NEAR(gp.predict(graphs[i]).mean, targets[i], 0.35);
  }
}

TEST(WlGp, GradientMatchesLinearityOfKernel) {
  // With the dot-product WL kernel the posterior mean is linear in the
  // feature vector, so mu(phi + e_j) - mu(phi) must equal the analytic
  // gradient of Eq. 5 exactly. Adding one disconnected node labeled "B"
  // increments exactly one depth-0 feature (plus new deeper features with
  // zero gradient).
  auto feat = std::make_shared<graph::WlFeaturizer>(1);
  WlGpConfig config;
  config.max_h = 1;
  config.fit_h = false;
  config.fixed_h = 0;  // depth-0 only: adding a node changes one feature
  WlGp gp(feat, config);

  std::vector<graph::Graph> graphs;
  std::vector<double> targets;
  const std::vector<std::vector<std::string>> specs = {
      {"A", "B"}, {"A", "B", "B"}, {"A", "A"}, {"B", "B", "B"}, {"A"},
  };
  for (const auto& s : specs) {
    graphs.push_back(make_chain(s));
    targets.push_back(static_cast<double>(
        std::count(s.begin(), s.end(), std::string("B"))));
  }
  gp.fit(graphs, targets);

  graph::Graph base = make_chain({"A", "B"});
  const double mu0 = gp.predict(base).mean;
  graph::Graph plus_b = base;
  plus_b.add_node("B");
  const double mu1 = gp.predict(plus_b).mean;

  // Feature id of label "B" at depth 0.
  const auto labels = feat->node_labels(base, 0);
  const std::size_t b_id = labels[0][1];
  EXPECT_EQ(feat->provenance(b_id), "B");
  EXPECT_NEAR(mu1 - mu0, gp.mean_gradient(b_id), 1e-9);

  // Dense gradient agrees with the scalar accessor.
  const auto grad = gp.mean_gradient();
  EXPECT_NEAR(grad[b_id], gp.mean_gradient(b_id), 1e-12);
}

TEST(WlGp, MleSelectsExpressiveDepth) {
  // Target depends on depth-1 structure (neighbor identity), so MLE should
  // not pick a degenerate model; chosen h must be within range.
  auto feat = std::make_shared<graph::WlFeaturizer>(3);
  WlGp gp(feat, WlGpConfig{.max_h = 3});
  util::Rng rng(35);
  std::vector<graph::Graph> graphs;
  std::vector<double> targets;
  for (int i = 0; i < 12; ++i) {
    std::vector<std::string> labels;
    const int n = 3 + static_cast<int>(rng.index(3));
    int ab_edges = 0;
    for (int j = 0; j < n; ++j) {
      labels.push_back(rng.chance(0.5) ? "A" : "B");
    }
    for (int j = 0; j + 1 < n; ++j) {
      if (labels[j] != labels[j + 1]) ++ab_edges;
    }
    graphs.push_back(make_chain(labels));
    targets.push_back(static_cast<double>(ab_edges));
  }
  gp.fit(graphs, targets);
  EXPECT_GE(gp.chosen_h(), 0);
  EXPECT_LE(gp.chosen_h(), 3);
  EXPECT_GT(gp.signal_variance(), 0.0);
  EXPECT_GT(gp.noise_variance(), 0.0);
  EXPECT_TRUE(std::isfinite(gp.log_marginal_likelihood()));
}

TEST(WlGp, FixedDepthRespected) {
  auto feat = std::make_shared<graph::WlFeaturizer>(4);
  WlGpConfig config;
  config.max_h = 4;
  config.fit_h = false;
  config.fixed_h = 2;
  WlGp gp(feat, config);
  gp.fit({make_chain({"A", "B"}), make_chain({"B", "B"})},
         std::vector<double>{0.0, 1.0});
  EXPECT_EQ(gp.chosen_h(), 2);
}

TEST(WlGp, Validation) {
  auto feat = std::make_shared<graph::WlFeaturizer>(2);
  EXPECT_THROW(WlGp(nullptr, WlGpConfig{}), std::invalid_argument);
  WlGpConfig too_deep;
  too_deep.max_h = 5;
  EXPECT_THROW(WlGp(feat, too_deep), std::invalid_argument);
  WlGp gp(feat, WlGpConfig{.max_h = 2});
  EXPECT_THROW(gp.fit({make_chain({"A"})}, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(gp.predict(make_chain({"A"})), std::logic_error);
}

TEST(WlFitCache, SharedFitMatchesFullFitIncrementally) {
  // Grow the cache one record at a time (exercising factor materialization
  // at one size and border updates at every later size) and, at each size,
  // fit five target columns in one shared scan and compare every model
  // against an independent full fit and against a one-model scan. The
  // shared path is bit-identical, so hyperparameters, LML, and held-out
  // predictions must match exactly. Two models search narrower depth
  // ranges, so the scan's per-model ranges are exercised as well.
  auto feat = std::make_shared<graph::WlFeaturizer>(3);
  const std::array<WlGpConfig, 5> configs = {
      WlGpConfig{.max_h = 3}, WlGpConfig{.max_h = 3}, WlGpConfig{.max_h = 3},
      WlGpConfig{.max_h = 2},
      WlGpConfig{.max_h = 3, .fit_h = false, .fixed_h = 1}};
  WlFitCache cache(feat, 3);
  util::Rng rng(41);
  std::vector<graph::Graph> graphs;
  std::array<std::vector<double>, 5> targets;
  for (int i = 0; i < 10; ++i) {
    std::vector<std::string> labels;
    const int n = 3 + static_cast<int>(rng.index(3));
    for (int j = 0; j < n; ++j) {
      labels.push_back(rng.chance(0.5) ? "A" : "B");
    }
    int ab_edges = 0;
    for (int j = 0; j + 1 < n; ++j) {
      if (labels[j] != labels[j + 1]) ++ab_edges;
    }
    graphs.push_back(make_chain(labels));
    targets[0].push_back(static_cast<double>(
        std::count(labels.begin(), labels.end(), std::string("B"))));
    targets[1].push_back(static_cast<double>(ab_edges));
    targets[2].push_back(static_cast<double>(n));
    targets[3].push_back(labels.front() == "B" ? 1.0 : 0.0);
    targets[4].push_back(rng.normal());
  }
  const graph::Graph held_out = make_chain({"A", "B", "A", "B"});

  for (std::size_t n = 0; n < graphs.size(); ++n) {
    cache.append(feat->features(graphs[n], 3));
    if (n + 1 < 2) continue;
    const std::vector<graph::Graph> prefix(graphs.begin(),
                                           graphs.begin() + n + 1);
    std::vector<WlGp> shared;
    std::vector<std::span<const double>> columns;
    for (std::size_t m = 0; m < configs.size(); ++m) {
      shared.emplace_back(feat, configs[m]);
      columns.emplace_back(targets[m].data(), n + 1);
    }
    WlGp::fit_shared(cache, shared, columns);
    for (std::size_t m = 0; m < configs.size(); ++m) {
      WlGp full(feat, configs[m]);
      full.fit(prefix, columns[m]);
      WlGp alone(feat, configs[m]);
      alone.fit_shared(cache, columns[m]);
      for (const WlGp* other : {&full, &alone}) {
        EXPECT_EQ(shared[m].chosen_h(), other->chosen_h());
        EXPECT_EQ(shared[m].signal_variance(), other->signal_variance());
        EXPECT_EQ(shared[m].noise_variance(), other->noise_variance());
        EXPECT_EQ(shared[m].log_marginal_likelihood(),
                  other->log_marginal_likelihood());
        const Prediction p_other = other->predict(held_out);
        const Prediction p_shared = shared[m].predict(held_out);
        EXPECT_EQ(p_shared.mean, p_other.mean);
        EXPECT_EQ(p_shared.variance, p_other.variance);
      }
    }
  }
}

TEST(WlFitCache, Validation) {
  auto feat = std::make_shared<graph::WlFeaturizer>(2);
  EXPECT_THROW(WlFitCache(nullptr, 2), std::invalid_argument);
  EXPECT_THROW(WlFitCache(feat, 3), std::invalid_argument);
  EXPECT_THROW(WlFitCache(feat, -1), std::invalid_argument);

  const graph::SparseVec ab = feat->features(make_chain({"A", "B"}), 2);
  const graph::SparseVec bb = feat->features(make_chain({"B", "B"}), 2);
  WlFitCache cache(feat, 2);
  cache.append(ab);
  cache.append(bb);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_THROW(cache.features_at(3), std::out_of_range);
  EXPECT_THROW(cache.factor(0, 99, 0), std::out_of_range);

  WlGp gp(feat, WlGpConfig{.max_h = 2});
  const std::vector<double> one = {0.0};
  EXPECT_THROW(gp.fit_shared(cache, one), std::invalid_argument);
  const std::vector<double> two = {0.0, 1.0};
  auto other_feat = std::make_shared<graph::WlFeaturizer>(2);
  WlGp other(other_feat, WlGpConfig{.max_h = 2});
  EXPECT_THROW(other.fit_shared(cache, two), std::invalid_argument);

  // The scan takes exactly one target column per model.
  std::vector<WlGp> models;
  models.emplace_back(feat, WlGpConfig{.max_h = 2});
  models.emplace_back(feat, WlGpConfig{.max_h = 2});
  const std::vector<std::span<const double>> columns = {two};
  EXPECT_THROW(WlGp::fit_shared(cache, models, columns),
               std::invalid_argument);

  // A cache shallower than the model's max_h cannot serve its grid.
  WlFitCache shallow(feat, 1);
  shallow.append(ab);
  shallow.append(bb);
  EXPECT_THROW(gp.fit_shared(shallow, two), std::invalid_argument);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

// The posterior of Eqs. 3-4 for a model fitted to `train` / `targets`,
// written out with graph::dot over depth-filtered vectors: how
// predict_from_features computed it before it gathered each training
// vector through a dense buffer.
Prediction dot_product_posterior(const WlGp& model,
                                 const std::vector<graph::SparseVec>& train,
                                 std::span<const double> targets,
                                 const graph::SparseVec& full) {
  const std::size_t n = train.size();
  const double signal = model.signal_variance();
  la::MatrixD gram(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double k = signal * graph::dot(train[i], train[j]);
      gram(i, j) = k;
      gram(j, i) = k;
    }
    gram(i, i) += model.noise_variance();
  }
  const la::Cholesky chol(gram);
  const double y_mean = util::mean(targets);
  const double sd = util::stddev(targets);
  const double y_scale = sd > 1e-12 ? sd : 1.0;
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = (targets[i] - y_mean) / y_scale;
  const std::vector<double> alpha = chol.solve(y);

  const graph::SparseVec phi =
      graph::filter_by_depth(full, model.featurizer(), model.chosen_h());
  std::vector<double> kvec(n);
  double mean_std = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    kvec[i] = signal * graph::dot(phi, train[i]);
  }
  for (std::size_t i = 0; i < n; ++i) mean_std += kvec[i] * alpha[i];
  double quad = 0.0;
  for (double vi : chol.solve_lower(kvec)) quad += vi * vi;
  const double var_std = std::max(0.0, signal * graph::dot(phi, phi) - quad);
  return {mean_std * y_scale + y_mean, var_std * y_scale * y_scale};
}

TEST(WlGp, PredictionMatchesDotProductPosterior) {
  // Five models fitted in one scan to different targets over circuit
  // graphs, at several chosen depths. Every prediction over a
  // 200-candidate pool must equal the dot-product posterior bit for bit:
  // the dense gather adds graph::dot's products in graph::dot's order,
  // plus exact +0.0 terms.
  auto feat = std::make_shared<graph::WlFeaturizer>(6);
  WlFitCache cache(feat, 6);
  util::Rng rng(43);
  std::array<std::vector<double>, 5> targets;
  for (int i = 0; i < 30; ++i) {
    const circuit::Topology topo = circuit::Topology::random(rng);
    cache.append(feat->features(circuit::build_circuit_graph(topo), 6));
    const auto& types = topo.types();
    for (std::size_t m = 0; m < targets.size(); ++m) {
      targets[m].push_back(static_cast<double>(types[m]) +
                           0.1 * rng.normal());
    }
  }
  const std::array<WlGpConfig, 5> configs = {
      WlGpConfig{}, WlGpConfig{}, WlGpConfig{},
      WlGpConfig{.fit_h = false, .fixed_h = 3},
      WlGpConfig{.fit_h = false, .fixed_h = 3}};
  std::vector<WlGp> models;
  std::vector<std::span<const double>> columns;
  for (std::size_t m = 0; m < configs.size(); ++m) {
    models.emplace_back(feat, configs[m]);
    columns.emplace_back(targets[m]);
  }
  WlGp::fit_shared(cache, models, columns);
  std::set<int> depths;
  for (const WlGp& model : models) depths.insert(model.chosen_h());
  ASSERT_GT(depths.size(), 1u);

  std::vector<graph::SparseVec> pool;
  for (int c = 0; c < 200; ++c) {
    pool.push_back(feat->features(
        circuit::build_circuit_graph(circuit::Topology::random(rng)), 6));
  }
  for (std::size_t m = 0; m < models.size(); ++m) {
    const std::vector<graph::SparseVec>& train =
        cache.features_at(models[m].chosen_h());
    for (const graph::SparseVec& full : pool) {
      const Prediction got = models[m].predict_from_features(full);
      const Prediction want =
          dot_product_posterior(models[m], train, targets[m], full);
      EXPECT_EQ(got.mean, want.mean);
      EXPECT_EQ(got.variance, want.variance);
    }
  }
}

TEST(WlGp, MemoizedFeaturesEqualRefeaturization) {
  // The optimizer featurizes each topology once. Featurizing a memoized
  // topology again interns nothing and yields an equal vector, which is
  // why the memo cannot change any kernel, id or campaign result.
  core::IntoOaOptimizer optimizer;
  const auto feat = optimizer.featurizer();
  const int max_h = optimizer.config().wlgp.max_h;
  util::Rng rng(47);
  std::vector<circuit::Topology> topologies;
  for (int i = 0; i < 20; ++i) {
    topologies.push_back(circuit::Topology::random(rng));
    optimizer.features(topologies.back());
  }
  const std::size_t labels = feat->label_count();
  for (const circuit::Topology& topo : topologies) {
    const graph::SparseVec& memo = optimizer.features(topo);
    EXPECT_EQ(&memo, &optimizer.features(topo));
    EXPECT_EQ(feat->features(circuit::build_circuit_graph(topo), max_h), memo);
  }
  EXPECT_EQ(feat->label_count(), labels);
}

TEST(Acquisition, ExpectedImprovementKnownValues) {
  // With mean = best and unit variance: EI = pdf(0) ~= 0.3989.
  EXPECT_NEAR(expected_improvement(0.0, 1.0, 0.0), 0.3989422804, 1e-6);
  // Deterministic improvement.
  EXPECT_DOUBLE_EQ(expected_improvement(2.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(expected_improvement(0.5, 0.0, 1.0), 0.0);
  // EI increases with variance.
  EXPECT_GT(expected_improvement(0.0, 4.0, 1.0),
            expected_improvement(0.0, 1.0, 1.0));
  EXPECT_THROW(expected_improvement(0.0, -1.0, 0.0), std::invalid_argument);
}

TEST(Acquisition, ProbabilityFeasible) {
  EXPECT_NEAR(probability_feasible(0.0, 1.0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(probability_feasible(-1.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(probability_feasible(1.0, 0.0), 0.0);
  EXPECT_GT(probability_feasible(-1.0, 1.0), 0.8);
  EXPECT_LT(probability_feasible(1.0, 1.0), 0.2);
}

TEST(Acquisition, WeightedEiComposition) {
  const std::vector<double> cm = {-2.0, -2.0};
  const std::vector<double> cv = {0.01, 0.01};
  WeiInputs in;
  in.objective_mean = 1.0;
  in.objective_variance = 0.5;
  in.best_feasible = 0.5;
  in.have_feasible = true;
  in.constraint_means = cm;
  in.constraint_variances = cv;
  const double with_feasible_constraints = weighted_ei(in);
  EXPECT_GT(with_feasible_constraints, 0.0);

  // An almost-surely-violated constraint crushes the score.
  const std::vector<double> bad_cm = {3.0, -2.0};
  in.constraint_means = bad_cm;
  EXPECT_LT(weighted_ei(in), 1e-3 * with_feasible_constraints);

  // Without a feasible incumbent, wEI reduces to the PF product.
  in.constraint_means = cm;
  in.have_feasible = false;
  const double pf_only = weighted_ei(in);
  EXPECT_LE(pf_only, 1.0);
  EXPECT_GT(pf_only, 0.9);  // both constraints comfortably satisfied
}

TEST(Acquisition, WeightedEiValidatesSpans) {
  const std::vector<double> cm = {0.0};
  const std::vector<double> cv = {0.0, 0.0};
  WeiInputs in;
  in.constraint_means = cm;
  in.constraint_variances = cv;
  EXPECT_THROW(weighted_ei(in), std::invalid_argument);
}

}  // namespace
