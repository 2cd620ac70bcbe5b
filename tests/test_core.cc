// BSG4Bot core machinery: pre-training, Algorithm 1, batching, semantic
// attention, the full model, and the plugin mode.
#include <set>

#include <gtest/gtest.h>

#include "core/biased_subgraph.h"
#include "core/bsg4bot.h"
#include "core/plugin.h"
#include "core/pretrain.h"
#include "core/semantic_attention.h"
#include "core/subgraph_batch.h"
#include "gradcheck.h"
#include "graph/homophily.h"
#include "test_common.h"
#include "train/trainer.h"

namespace bsg {
namespace {

using bsg::testing::ExpectGradientsMatch;
using bsg::testing::SmallGraph;

PretrainConfig FastPretrain() {
  PretrainConfig cfg;
  cfg.epochs = 40;
  cfg.hidden = 16;
  return cfg;
}

// Cached pre-training for the subgraph tests.
const PretrainResult& CachedPretrain() {
  static const PretrainResult* res =
      new PretrainResult(PretrainClassifier(SmallGraph(), FastPretrain()));
  return *res;
}

TEST(Pretrain, CoarseClassifierIsUseful) {
  const PretrainResult& res = CachedPretrain();
  EXPECT_GT(res.fit.accuracy, 0.7);  // "coarse but sufficient" (§III-C)
  EXPECT_EQ(res.hidden_reps.rows(), SmallGraph().num_nodes);
  EXPECT_EQ(res.hidden_reps.cols(), 16);
  EXPECT_EQ(res.probs.cols(), 2);
  EXPECT_GT(res.seconds, 0.0);
}

TEST(Pretrain, ProbabilitiesAreDistributions) {
  const PretrainResult& res = CachedPretrain();
  for (int i = 0; i < res.probs.rows(); ++i) {
    EXPECT_NEAR(res.probs(i, 0) + res.probs(i, 1), 1.0, 1e-9);
    EXPECT_GE(res.probs(i, 0), 0.0);
  }
}

TEST(Pretrain, SimilarityBoundsAndSelfSimilarity) {
  const PretrainResult& res = CachedPretrain();
  EXPECT_NEAR(NodeSimilarity(res.hidden_reps, 3, 3), 1.0, 1e-9);
  for (int j = 0; j < 50; ++j) {
    double s = NodeSimilarity(res.hidden_reps, 0, j);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(BiasedSubgraph, StructureInvariants) {
  const HeteroGraph& g = SmallGraph();
  BiasedSubgraphConfig cfg;
  cfg.k = 12;
  BiasedSubgraph sub =
      BuildBiasedSubgraph(g, CachedPretrain().hidden_reps, 5, cfg);
  EXPECT_EQ(sub.center, 5);
  ASSERT_EQ(sub.per_relation.size(), static_cast<size_t>(g.num_relations()));
  for (const RelationSubgraph& rel : sub.per_relation) {
    ASSERT_FALSE(rel.nodes.empty());
    EXPECT_EQ(rel.nodes[0], 5);                  // centre first
    EXPECT_LE(rel.nodes.size(), 13u);            // k + centre
    // Node ids unique.
    std::set<int> uniq(rel.nodes.begin(), rel.nodes.end());
    EXPECT_EQ(uniq.size(), rel.nodes.size());
    // Star edges: every node adjacent to local 0 => connected.
    for (int i = 1; i < rel.adj.num_nodes(); ++i) {
      EXPECT_TRUE(rel.adj.HasEdge(0, i));
      EXPECT_TRUE(rel.adj.HasEdge(i, 0));
    }
    EXPECT_TRUE(rel.adj.Validate().ok());
  }
}

TEST(BiasedSubgraph, RetainsOriginalEdges) {
  const HeteroGraph& g = SmallGraph();
  BiasedSubgraphConfig cfg;
  cfg.k = 16;
  BiasedSubgraph sub =
      BuildBiasedSubgraph(g, CachedPretrain().hidden_reps, 10, cfg);
  const RelationSubgraph& rel = sub.per_relation[0];
  // Any original edge between two selected nodes must appear locally.
  for (size_t i = 0; i < rel.nodes.size(); ++i) {
    for (size_t j = i + 1; j < rel.nodes.size(); ++j) {
      if (g.relations[0].HasEdge(rel.nodes[i], rel.nodes[j])) {
        EXPECT_TRUE(rel.adj.HasEdge(static_cast<int>(i), static_cast<int>(j)));
      }
    }
  }
}

TEST(BiasedSubgraph, BiasRaisesBotHomophily) {
  // The headline mechanism (Fig. 8): biased selection must raise bot
  // homophily well above the original graph's bot homophily.
  const HeteroGraph& g = SmallGraph();
  const Matrix& reps = CachedPretrain().hidden_reps;
  BiasedSubgraphConfig biased;
  biased.k = 16;
  BiasedSubgraphConfig ppr_only = biased;
  ppr_only.ppr_only = true;

  double biased_bot = 0.0, ppr_bot = 0.0;
  int bots = 0;
  for (int v = 0; v < g.num_nodes; ++v) {
    if (g.labels[v] != 1) continue;
    double hb = SubgraphCenterHomophily(BuildBiasedSubgraph(g, reps, v, biased),
                                        g.labels);
    double hp = SubgraphCenterHomophily(
        BuildBiasedSubgraph(g, reps, v, ppr_only), g.labels);
    if (hb < 0 || hp < 0) continue;
    biased_bot += hb;
    ppr_bot += hp;
    ++bots;
    if (bots >= 60) break;
  }
  ASSERT_GT(bots, 10);
  EXPECT_GT(biased_bot / bots, ppr_bot / bots + 0.1);
}

TEST(BiasedSubgraph, LambdaOneIsPureNormalisedPpr) {
  const HeteroGraph& g = SmallGraph();
  const Matrix& reps = CachedPretrain().hidden_reps;
  BiasedSubgraphConfig lambda1;
  lambda1.k = 8;
  lambda1.lambda = 1.0;
  BiasedSubgraphConfig ppr_only = lambda1;
  ppr_only.ppr_only = true;
  BiasedSubgraph a = BuildBiasedSubgraph(g, reps, 3, lambda1);
  BiasedSubgraph b = BuildBiasedSubgraph(g, reps, 3, ppr_only);
  for (size_t r = 0; r < a.per_relation.size(); ++r) {
    EXPECT_EQ(a.per_relation[r].nodes, b.per_relation[r].nodes);
  }
}

TEST(SubgraphBatch, BlockStackingIsConsistent) {
  const HeteroGraph& g = SmallGraph();
  BiasedSubgraphConfig cfg;
  cfg.k = 8;
  std::vector<BiasedSubgraph> subs =
      BuildAllSubgraphs(g, CachedPretrain().hidden_reps, cfg);
  std::vector<int> centers = {0, 17, 42, 99};
  SubgraphBatch batch = MakeSubgraphBatch(subs, centers, g.num_relations());
  ASSERT_EQ(batch.rel_adjs.size(), static_cast<size_t>(g.num_relations()));
  for (int r = 0; r < g.num_relations(); ++r) {
    // Stacked node count matches id list.
    EXPECT_EQ(batch.rel_adjs[r].fwd->num_nodes(),
              static_cast<int>(batch.rel_node_ids[r].size()));
    // Centre rows point at the right global ids.
    ASSERT_EQ(batch.rel_center_rows[r].size(), centers.size());
    for (size_t i = 0; i < centers.size(); ++i) {
      EXPECT_EQ(batch.rel_node_ids[r][batch.rel_center_rows[r][i]],
                centers[i]);
    }
  }
}

TEST(SemanticAttention, OutputShapeAndWeightSimplex) {
  Rng rng(3);
  ParamStore store;
  SemanticAttention att(8, 4, &store, &rng);
  Tensor h1 = MakeTensor(Matrix::RandomNormal(5, 8, 1.0, &rng));
  Tensor h2 = MakeTensor(Matrix::RandomNormal(5, 8, 1.0, &rng));
  Tensor h3 = MakeTensor(Matrix::RandomNormal(5, 8, 1.0, &rng));
  std::vector<double> betas;
  Tensor out = att.Forward({h1, h2, h3}, &betas);
  EXPECT_EQ(out->rows(), 5);
  EXPECT_EQ(out->cols(), 8);
  ASSERT_EQ(betas.size(), 3u);
  double total = 0.0;
  for (double b : betas) {
    EXPECT_GT(b, 0.0);
    total += b;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SemanticAttention, GradientsFlowToAttentionParams) {
  Rng rng(4);
  ParamStore store;
  SemanticAttention att(6, 3, &store, &rng);
  Tensor h1 = MakeTensor(Matrix::RandomNormal(4, 6, 0.8, &rng), true);
  Tensor h2 = MakeTensor(Matrix::RandomNormal(4, 6, 0.8, &rng), true);
  std::vector<Tensor> params = store.params();
  params.push_back(h1);
  params.push_back(h2);
  ExpectGradientsMatch(params, [&] {
    Tensor out = att.Forward({h1, h2});
    return ops::MeanAll(ops::Mul(out, out));
  }, 1e-6, 1e-4);
}

TEST(SemanticAttention, MeanPoolAverages) {
  Tensor a = MakeTensor(Matrix(2, 3, 1.0));
  Tensor b = MakeTensor(Matrix(2, 3, 3.0));
  Tensor out = MeanPoolRelations({a, b});
  EXPECT_DOUBLE_EQ(out->value(0, 0), 2.0);
}

TEST(Bsg4Bot, EndToEndBeatsMlpPreclassifier) {
  Bsg4BotConfig cfg;
  cfg.pretrain = FastPretrain();
  cfg.subgraph.k = 12;
  cfg.hidden = 16;
  cfg.max_epochs = 20;
  cfg.patience = 20;
  cfg.seed = 5;
  Bsg4Bot model(SmallGraph(), cfg);
  TrainResult res = model.Fit();
  EXPECT_GT(res.test.accuracy, 0.75);
  EXPECT_GT(res.test.f1, 0.70);
  EXPECT_GT(model.prepare_seconds(), 0.0);
  EXPECT_GT(model.NumParameters(), 0);
}

TEST(Bsg4Bot, PredictMatchesLogitsArgmax) {
  Bsg4BotConfig cfg;
  cfg.pretrain = FastPretrain();
  cfg.subgraph.k = 8;
  cfg.hidden = 12;
  cfg.max_epochs = 4;
  cfg.patience = 4;
  Bsg4Bot model(SmallGraph(), cfg);
  model.Fit();
  std::vector<int> nodes = {1, 2, 3, 4, 5};
  Matrix logits = model.PredictLogits(nodes);
  std::vector<int> preds = model.Predict(nodes);
  ASSERT_EQ(preds.size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    int expect = logits(static_cast<int>(i), 1) > logits(static_cast<int>(i), 0)
                     ? 1
                     : 0;
    EXPECT_EQ(preds[i], expect);
  }
}

TEST(Bsg4Bot, AblationSwitchesChangeArchitecture) {
  Bsg4BotConfig full;
  full.pretrain = FastPretrain();
  full.subgraph.k = 8;
  full.hidden = 12;
  full.max_epochs = 2;
  full.patience = 2;
  Bsg4BotConfig no_concat = full;
  no_concat.use_intermediate_concat = false;
  Bsg4BotConfig mean_pool = full;
  mean_pool.use_semantic_attention = false;

  Bsg4Bot a(SmallGraph(), full);
  Bsg4Bot b(SmallGraph(), no_concat);
  Bsg4Bot c(SmallGraph(), mean_pool);
  a.Fit();
  b.Fit();
  c.Fit();
  // Concatenation widens the head: more parameters.
  EXPECT_GT(a.NumParameters(), b.NumParameters());
  // Mean pooling removes the semantic-attention parameters.
  EXPECT_GT(a.NumParameters(), c.NumParameters());
}

TEST(Plugin, RewiredGraphsCoverAllRelationsAndValidate) {
  const HeteroGraph& g = SmallGraph();
  BiasedSubgraphConfig cfg;
  cfg.k = 8;
  std::vector<BiasedSubgraph> subs =
      BuildAllSubgraphs(g, CachedPretrain().hidden_reps, cfg);
  PluginGraphs plugin = BuildPluginGraphs(g, subs);
  EXPECT_EQ(plugin.per_relation.size(),
            static_cast<size_t>(g.num_relations()));
  EXPECT_TRUE(plugin.merged.Validate().ok());
  EXPECT_GT(plugin.merged.num_edges(), 0);
  // Plugin graph raises bot homophily over the original merged graph.
  double orig = ClassHomophily(g.MergedGraph(), g.labels, 1);
  double rewired = ClassHomophily(plugin.merged, g.labels, 1);
  EXPECT_GT(rewired, orig);
}

TEST(Plugin, ModelsTrainOnRewiredGraphs) {
  const HeteroGraph& g = SmallGraph();
  BiasedSubgraphConfig cfg;
  cfg.k = 8;
  std::vector<BiasedSubgraph> subs =
      BuildAllSubgraphs(g, CachedPretrain().hidden_reps, cfg);
  PluginGraphs plugin = BuildPluginGraphs(g, subs);
  ModelConfig mc;
  mc.hidden = 16;
  TrainConfig tc;
  tc.max_epochs = 40;
  tc.patience = 40;
  for (const char* base : {"GCN", "GAT", "BotRGCN"}) {
    auto model = CreatePluginModel(base, g, plugin, mc, 3);
    ASSERT_NE(model, nullptr) << base;
    TrainResult res = TrainModel(model.get(), tc);
    EXPECT_GT(res.test.accuracy, 0.6) << base;
  }
  EXPECT_EQ(CreatePluginModel("MLP", g, plugin, mc, 3), nullptr);
}

}  // namespace
}  // namespace bsg
