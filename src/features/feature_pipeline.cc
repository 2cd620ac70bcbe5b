#include "features/feature_pipeline.h"

#include <cmath>
#include <set>

#include "features/zscore.h"
#include "train/splits.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/status.h"

namespace bsg {

namespace {

// User-range grain for the per-user feature loops (each user owns its own
// output rows, so the loops are conflict-free and thread-count invariant).
constexpr int kUserGrain = 64;

// Numerical metadata, log-scaled before standardisation (heavy tails).
Matrix NumericalMetadata(const RawDataset& raw) {
  const int n = raw.num_users();
  Matrix m(n, 5);
  ParallelFor(0, n, kUserGrain, [&](int64_t u0, int64_t u1) {
    for (int u = static_cast<int>(u0); u < static_cast<int>(u1); ++u) {
      const UserMetadata& md = raw.metadata[u];
      m(u, 0) = std::log1p(md.followers);
      m(u, 1) = std::log1p(md.friends);
      m(u, 2) = std::log1p(md.listed);
      m(u, 3) = std::log1p(md.account_age_days);
      m(u, 4) = std::log1p(md.total_tweets);
    }
  });
  return m;
}

Matrix CategoricalMetadata(const RawDataset& raw) {
  const int n = raw.num_users();
  Matrix m(n, 3);
  for (int u = 0; u < n; ++u) {
    const UserMetadata& md = raw.metadata[u];
    m(u, 0) = md.verified ? 1.0 : 0.0;
    m(u, 1) = md.default_profile ? 1.0 : 0.0;
    m(u, 2) = md.has_description ? 1.0 : 0.0;
  }
  return m;
}

// Mean tweet embedding per user.
Matrix MeanTweetEmbedding(const RawDataset& raw) {
  const int n = raw.num_users();
  const int d = raw.tweet_embeddings.cols();
  Matrix m(n, d);
  ParallelFor(0, n, kUserGrain, [&](int64_t u0, int64_t u1) {
    for (int u = static_cast<int>(u0); u < static_cast<int>(u1); ++u) {
      int64_t lo = raw.tweet_offsets[u], hi = raw.tweet_offsets[u + 1];
      if (lo == hi) continue;
      double* out = m.row(u);
      for (int64_t e = lo; e < hi; ++e) {
        const double* t = raw.tweet_embeddings.row(static_cast<int>(e));
        for (int c = 0; c < d; ++c) out[c] += t[c];
      }
      for (int c = 0; c < d; ++c) out[c] /= static_cast<double>(hi - lo);
    }
  });
  return m;
}

}  // namespace

HeteroGraph BuildGraph(const RawDataset& raw, const FeaturePipelineConfig& cfg,
                       FeatureReport* report) {
  const int n = raw.num_users();
  const int k = cfg.kmeans.k;
  Rng rng(cfg.seed);

  // --- content categories: K-means over all tweet embeddings (§III-B) ---
  Rng kmeans_rng = rng.Split();
  KMeansResult km = RunKMeans(raw.tweet_embeddings, cfg.kmeans, &kmeans_rng);

  // Per-user: number of distinct categories + percentage per category.
  Matrix category_pct(n, k);
  Matrix category_count(n, 1);
  std::vector<int> num_categories(n, 0);
  ParallelFor(0, n, kUserGrain, [&](int64_t u0, int64_t u1) {
    for (int u = static_cast<int>(u0); u < static_cast<int>(u1); ++u) {
      int64_t lo = raw.tweet_offsets[u], hi = raw.tweet_offsets[u + 1];
      std::set<int> distinct;
      for (int64_t e = lo; e < hi; ++e) {
        int c = km.assignment[static_cast<size_t>(e)];
        distinct.insert(c);
        category_pct(u, c) += 1.0;
      }
      if (hi > lo) {
        for (int c = 0; c < k; ++c) {
          category_pct(u, c) /= static_cast<double>(hi - lo);
        }
      }
      num_categories[u] = static_cast<int>(distinct.size());
      category_count(u, 0) = num_categories[u];
    }
  });
  ZScoreScaler count_scaler;
  Matrix category_count_z = count_scaler.FitTransform(category_count);

  // --- temporal feature: per-month percentages over the last months ---
  int months = cfg.temporal_months;
  BSG_CHECK(months <= raw.config.months, "temporal feature window too long");
  Matrix temporal(n, months);
  ParallelFor(0, n, kUserGrain, [&](int64_t u0, int64_t u1) {
    for (int u = static_cast<int>(u0); u < static_cast<int>(u1); ++u) {
      const std::vector<int>& counts = raw.monthly_counts[u];
      int start = raw.config.months - months;
      double total = 0.0;
      for (int m = start; m < raw.config.months; ++m) total += counts[m];
      for (int m = 0; m < months; ++m) {
        temporal(u, m) =
            total > 0.0 ? counts[start + m] / total : 1.0 / months;
      }
    }
  });

  // --- metadata ---
  ZScoreScaler num_scaler;
  Matrix z_num = num_scaler.FitTransform(NumericalMetadata(raw));
  Matrix z_cat = CategoricalMetadata(raw);

  // --- assemble, tracking block layout ---
  HeteroGraph g;
  g.name = raw.config.name;
  g.num_nodes = n;
  g.relation_names = raw.config.relations;
  g.relations = raw.relations;
  g.labels = raw.labels;
  g.community = raw.community;

  Matrix features = raw.desc_embeddings;
  int cursor = 0;
  auto add_block = [&](const std::string& name, const Matrix& block) {
    if (cursor == 0) {
      // First block already placed (features initialised from it).
    } else {
      features = ConcatCols<Matrix>({&features, &block});
    }
    g.feature_blocks[name] = FeatureBlock{cursor, block.cols()};
    cursor += block.cols();
  };
  add_block("desc", raw.desc_embeddings);
  add_block("tweet", MeanTweetEmbedding(raw));
  add_block("num", z_num);
  add_block("cat", z_cat);
  add_block("category", ConcatCols<Matrix>({&category_count_z, &category_pct}));
  add_block("temporal", temporal);
  g.features = std::move(features);

  // --- stratified split ---
  Rng split_rng = rng.Split();
  Splits splits = StratifiedSplit(g.labels, raw.config.train_frac,
                                  raw.config.val_frac, &split_rng);
  g.train_idx = std::move(splits.train);
  g.val_idx = std::move(splits.val);
  g.test_idx = std::move(splits.test);

  if (report != nullptr) {
    report->num_categories_per_user = std::move(num_categories);
    report->kmeans = std::move(km);
    report->num_scaler = std::move(num_scaler);
    report->count_scaler = std::move(count_scaler);
  }
  BSG_CHECK(g.Validate().ok(), "assembled graph failed validation");
  return g;
}

HeteroGraph BuildBenchmarkGraph(const DatasetConfig& cfg,
                                FeatureReport* report) {
  SocialNetworkGenerator gen(cfg);
  RawDataset raw = gen.Generate();
  FeaturePipelineConfig pipeline;
  pipeline.seed = cfg.seed ^ 0x5EEDF00DULL;
  return BuildGraph(raw, pipeline, report);
}

}  // namespace bsg
