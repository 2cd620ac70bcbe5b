// perfbench_check: the quick check mode. Carries over the assertions of
// bench/bench_pr5..pr10 at a small size, so retiring them loses nothing;
// the mapping is in perfbench/README.md.
//
//   perfbench_check
//
// Exit code 0 iff every check passed. Prints one line per check.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "core/bsg4bot.h"
#include "serve/frontend.h"
#include "util/alloc_probe.h"  // replaces operator new: exact alloc counts
#include "util/string_util.h"
#include "world.h"

using namespace bsg;

namespace {

/// Accounts in the quick check's graph: small enough for a few seconds.
constexpr int kQuickUsers = 600;

int g_failures = 0;

void Check(const char* name, bool ok, const std::string& detail) {
  std::printf("check %-44s %s  %s\n", name, ok ? "ok" : "FAILED",
              detail.c_str());
  if (!ok) ++g_failures;
}

bool BitIdentical(const std::vector<std::vector<Score>>& a,
                  const std::vector<std::vector<Score>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t i = 0; i < a[r].size(); ++i) {
      if (std::memcmp(&a[r][i].logit_human, &b[r][i].logit_human,
                      sizeof(double)) != 0 ||
          std::memcmp(&a[r][i].logit_bot, &b[r][i].logit_bot,
                      sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// Scores `chunks` through a front-end with `workers` workers from four
/// clients; returns the scores in chunk order and checks conservation.
std::vector<std::vector<Score>> ServeThroughFrontend(
    Bsg4Bot* model, const std::vector<std::vector<int>>& chunks,
    int workers) {
  DetectionEngine engine(model, EngineConfig{});
  FrontendConfig fcfg;
  fcfg.workers = workers;
  fcfg.queue_capacity = chunks.size();
  ServingFrontend frontend(&engine, fcfg);
  std::vector<std::vector<Score>> out(chunks.size());
  std::vector<std::thread> clients;
  std::atomic<uint64_t> ok{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < chunks.size(); i += 4) {
        FrontendResult res = frontend.Submit(chunks[i]).get();
        if (res.status == RequestStatus::kOk) {
          ok.fetch_add(1);
          out[i] = std::move(res.scores);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  frontend.Close();
  const FrontendStats fs = frontend.Stats();
  uint64_t targets = 0;
  for (const auto& c : chunks) targets += c.size();
  Check(workers == 1 ? "frontend.conservation_w1" : "frontend.conservation_w4",
        fs.submitted_requests == chunks.size() &&
            fs.AccountedRequests() == fs.submitted_requests &&
            fs.served_requests == ok.load() &&
            fs.targets_submitted == targets &&
            fs.AccountedTargets() == fs.targets_submitted,
        StrFormat("submitted %llu served %llu",
                  static_cast<unsigned long long>(fs.submitted_requests),
                  static_cast<unsigned long long>(fs.served_requests)));
  return out;
}

}  // namespace

int main() {
  DatasetConfig dc = perfbench::ServingDataset();
  dc.num_users = kQuickUsers;
  perfbench::BuiltGraph built = perfbench::GenerateGraph(dc);
  const HeteroGraph& g = *built.graph;
  Bsg4BotConfig cfg = perfbench::ServingModelConfig();
  cfg.max_epochs = cfg.min_epochs = 2;
  Bsg4Bot model(g, cfg);
  model.Fit();

  // bench_pr5: a warm PprWorkspace call performs zero heap allocations.
  {
    PprWorkspace ws;
    const Csr& rel = g.relations[0];
    ws.ApproximatePpr(rel, 0, cfg.subgraph.ppr);
    for (int s = 0; s < rel.num_nodes(); ++s) {
      ws.ApproximatePpr(rel, s, cfg.subgraph.ppr);  // grow to the max
    }
    const uint64_t before = t_allocs;
    for (int s = 0; s < std::min(rel.num_nodes(), 400); ++s) {
      ws.ApproximatePpr(rel, s, cfg.subgraph.ppr);
    }
    const uint64_t allocs = t_allocs - before;
    Check("ppr_workspace.zero_warm_allocs", allocs == 0,
          StrFormat("%llu allocations",
                    static_cast<unsigned long long>(allocs)));
  }

  // bench_pr5: a warm SubgraphWorkspace allocates only the returned
  // subgraph — its own scratch stops growing once warm.
  {
    SubgraphWorkspace ws;
    const std::vector<double> dots =
        RowSelfDots(model.pretrain_result().hidden_reps);
    for (int t = 0; t < g.num_nodes; ++t) {
      BuildBiasedSubgraph(g, model.pretrain_result().hidden_reps, t,
                          model.config().subgraph, &ws, &dots);
    }
    const uint64_t growths = ws.buffer_growths();
    for (int t = 0; t < std::min(g.num_nodes, 400); ++t) {
      BuildBiasedSubgraph(g, model.pretrain_result().hidden_reps, t,
                          model.config().subgraph, &ws, &dots);
    }
    const uint64_t grew = ws.buffer_growths() - growths;
    Check("subgraph_workspace.zero_warm_growths", grew == 0,
          StrFormat("%llu growths", static_cast<unsigned long long>(grew)));
  }

  // bench_pr6: warm BatchStacker Stack/Recycle cycles allocate nothing.
  {
    std::vector<int> centers;
    for (int t = 0; t < std::min(g.num_nodes, cfg.batch_size); ++t) {
      centers.push_back(t);
    }
    std::vector<BiasedSubgraph> subs;
    for (int t : centers) subs.push_back(model.AssembleSubgraph(t));
    std::vector<const BiasedSubgraph*> ptrs;
    for (const BiasedSubgraph& s : subs) ptrs.push_back(&s);
    BatchStacker stacker(g.num_relations(), /*with_f32_weights=*/true);
    for (int i = 0; i < 3; ++i) stacker.Recycle(stacker.Stack(ptrs, centers));
    const uint64_t before = t_allocs;
    for (int i = 0; i < 50; ++i) stacker.Recycle(stacker.Stack(ptrs, centers));
    const uint64_t allocs = t_allocs - before;
    Check("batch_stacker.zero_warm_allocs", allocs == 0,
          StrFormat("%llu allocations over 50 batches",
                    static_cast<unsigned long long>(allocs)));
  }

  // bench_pr6: f32 parity against the f64 oracle, every account.
  {
    DetectionEngine f64(&model, EngineConfig{});
    EngineConfig ecfg;
    ecfg.precision = EngineConfig::Precision::kF32;
    DetectionEngine f32(&model, ecfg);
    std::vector<int> all(static_cast<size_t>(g.num_nodes));
    for (int i = 0; i < g.num_nodes; ++i) all[static_cast<size_t>(i)] = i;
    const std::vector<Score> want = f64.ScoreBatch(all);
    const std::vector<Score> got = f32.ScoreBatch(all);
    double max_dev = 0.0;
    int flips = 0;
    for (size_t i = 0; i < all.size(); ++i) {
      max_dev = std::max(
          {max_dev,
           std::abs(got[i].logit_human - want[i].logit_human) /
               (1.0 + std::abs(want[i].logit_human)),
           std::abs(got[i].logit_bot - want[i].logit_bot) /
               (1.0 + std::abs(want[i].logit_bot))});
      if (got[i].label != want[i].label) ++flips;
    }
    Check("f32.within_tolerance", max_dev <= 5e-3,
          StrFormat("max rel dev %.3g", max_dev));
    Check("f32.zero_argmax_flips", flips == 0, StrFormat("%d flips", flips));
  }

  // bench_pr7..pr10: conservation, and bit-identity at 1 vs 4 workers
  // against the serial engine and PredictLogits.
  {
    std::vector<std::vector<int>> chunks;
    for (int b = 0; b < g.num_nodes; b += cfg.batch_size) {
      std::vector<int> chunk;
      for (int t = b; t < std::min(g.num_nodes, b + cfg.batch_size); ++t) {
        chunk.push_back(t);
      }
      chunks.push_back(chunk);
    }
    std::vector<std::vector<Score>> serial;
    {
      DetectionEngine engine(&model, EngineConfig{});
      for (const auto& c : chunks) serial.push_back(engine.ScoreBatch(c));
    }
    const auto w1 = ServeThroughFrontend(&model, chunks, 1);
    const auto w4 = ServeThroughFrontend(&model, chunks, 4);
    Check("frontend.bit_identical_w1_vs_serial", BitIdentical(w1, serial), "");
    Check("frontend.bit_identical_w4_vs_w1", BitIdentical(w4, w1), "");
    std::vector<int> all;
    for (const auto& c : chunks) all.insert(all.end(), c.begin(), c.end());
    const Matrix oracle = model.PredictLogits(all);
    bool same = true;
    size_t row = 0;
    for (const auto& scores : w4) {
      for (const Score& s : scores) {
        const double h = oracle(static_cast<int>(row), 0);
        const double b = oracle(static_cast<int>(row), 1);
        same = same && std::memcmp(&s.logit_human, &h, sizeof h) == 0 &&
               std::memcmp(&s.logit_bot, &b, sizeof b) == 0;
        ++row;
      }
    }
    Check("frontend.bit_identical_to_PredictLogits", same, "");
  }

  std::printf("quick check: %s (%d failure(s))\n",
              g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
