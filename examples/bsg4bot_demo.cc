// End-to-end demo CLI: generate a synthetic benchmark graph, run the full
// BSG4Bot pipeline (pre-train -> biased subgraphs -> hetero-GNN), and print
// test metrics plus wall-clock time.
//
//   bsg4bot_demo [--dataset=twibot20|twibot22|mgtab] [--users=N]
//                [--threads=T] [--seed=S] [--k=K] [--lambda=L]
//
// --threads (or the BSG_NUM_THREADS env var) sets the thread count for the
// parallel substrate; results are bit-identical at any value.
#include <cstdio>

#include "datagen/config.h"
#include "features/feature_pipeline.h"
#include "train/experiment.h"
#include "util/flags.h"
#include "util/parallel.h"
#include "util/timer.h"

using namespace bsg;

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    std::printf(
        "usage: bsg4bot_demo [--dataset=twibot20|twibot22|mgtab] "
        "[--users=N] [--threads=T] [--seed=S] [--k=K] [--lambda=L]\n");
    return 0;
  }
  SetNumThreads(flags.GetInt("threads", 0));

  std::string name = flags.GetString("dataset", "twibot20");
  Result<DatasetConfig> preset = DatasetPreset(name);
  if (!preset.ok()) {
    std::fprintf(stderr, "%s\n", preset.status().ToString().c_str());
    return 1;
  }
  DatasetConfig dc = preset.MoveValueOrDie();
  dc.num_users = flags.GetInt("users", 1000);
  dc.seed = static_cast<uint64_t>(flags.GetInt("seed", 17));

  std::printf("dataset=%s users=%d threads=%d\n", name.c_str(), dc.num_users,
              NumThreads());

  WallTimer timer;
  HeteroGraph g = BuildBenchmarkGraph(dc);
  std::printf("graph built: %d nodes, %lld edges, %d relations (%s)\n",
              g.num_nodes, static_cast<long long>(g.TotalEdges()),
              g.num_relations(), FormatDuration(timer.Seconds()).c_str());

  Bsg4BotConfig cfg;
  cfg.subgraph.k = flags.GetInt("k", 32);
  cfg.subgraph.lambda = flags.GetDouble("lambda", 0.5);
  timer.Restart();
  ExperimentResult res =
      RunBsg4Bot(g, cfg, {static_cast<uint64_t>(flags.GetInt("seed", 17))});
  std::printf("BSG4Bot: accuracy=%s f1=%s epochs=%.0f total=%s\n",
              FormatMeanStd(res.accuracy).c_str(),
              FormatMeanStd(res.f1).c_str(), res.avg_epochs,
              FormatDuration(timer.Seconds()).c_str());
  return 0;
}
