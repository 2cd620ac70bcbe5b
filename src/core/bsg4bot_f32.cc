// Mixed-precision serving: the f32 shadow's materialisation and the f32
// forward pass (Eq. 9-15 over MatrixF kernels, no autograd). The f64
// ForwardBatch in bsg4bot.cc stays the accuracy oracle; tests/test_f32_parity
// pins per-logit agreement and argmax identity between the two.
#include <cmath>
#include <utility>

#include "core/bsg4bot.h"
#include "util/parallel.h"

namespace bsg {

namespace {

LinearF32 ConvertLinear(const Linear& l) {
  return LinearF32{MatrixF::FromDouble(l.weight()->value),
                   MatrixF::FromDouble(l.bias()->value)};
}

}  // namespace

void Bsg4Bot::EnsureF32Shadow() {
  if (f32_ == nullptr) RefreshF32Shadow();
}

void Bsg4Bot::RefreshF32Shadow() {
  BSG_CHECK(inference_ready(),
            "f32 shadow without pre-classifier state "
            "(run Prepare()/Fit() or restore a checkpoint)");
  auto shadow = std::make_unique<Bsg4BotF32>();
  shadow->features = MatrixF::FromDouble(graph_.features);
  shadow->input = ConvertLinear(input_);
  shadow->gcn.resize(gcn_.size());
  for (size_t r = 0; r < gcn_.size(); ++r) {
    shadow->gcn[r].reserve(gcn_[r].size());
    for (const Linear& layer : gcn_[r]) {
      shadow->gcn[r].push_back(ConvertLinear(layer));
    }
  }
  if (cfg_.use_semantic_attention) {
    shadow->sem_proj = ConvertLinear(fuse_.proj());
    shadow->sem_q = MatrixF::FromDouble(fuse_.q()->value);
  }
  shadow->head = ConvertLinear(head_);
  f32_ = std::move(shadow);
}

Matrix Bsg4Bot::ScoreBatchF32(const SubgraphBatch& batch) const {
  BSG_CHECK(f32_ != nullptr, "ScoreBatchF32 before EnsureF32Shadow()");
  const Bsg4BotF32& m = *f32_;
  const int R = graph_.num_relations();
  const float slope = static_cast<float>(cfg_.leaky_slope);
  // Mirror of ForwardBatch with training == false (dropout is identity):
  // per-relation towers as parallel tasks, fusion reduced in ascending
  // relation order on this thread.
  std::vector<MatrixF> per_relation(static_cast<size_t>(R));
  ParallelFor(0, R, 1, [&](int64_t r0, int64_t r1) {
    for (int r = static_cast<int>(r0); r < static_cast<int>(r1); ++r) {
      MatrixF x = m.features.GatherRows(batch.rel_node_ids[r]);
      MatrixF h = x.MatMulAddBias(m.input.w, m.input.b);  // Eq. 9
      h.LeakyReluInPlace(slope);

      std::vector<MatrixF> layer_outputs;
      layer_outputs.reserve(static_cast<size_t>(cfg_.gnn_layers) + 1);
      layer_outputs.push_back(std::move(h));
      for (int l = 0; l < cfg_.gnn_layers; ++l) {
        MatrixF agg = SpmmF(*batch.rel_adjs[r].fwd, batch.RelWeightsF32(r),
                            layer_outputs.back());
        MatrixF cur = agg.MatMulAddBias(m.gcn[r][l].w, m.gcn[r][l].b);
        cur.LeakyReluInPlace(slope);  // Eq. 10
        layer_outputs.push_back(std::move(cur));
      }
      if (cfg_.use_intermediate_concat) {  // Eq. 11
        std::vector<MatrixF> center_layers;
        center_layers.reserve(layer_outputs.size());
        std::vector<const MatrixF*> parts;
        parts.reserve(layer_outputs.size());
        for (const MatrixF& lo : layer_outputs) {
          center_layers.push_back(lo.GatherRows(batch.rel_center_rows[r]));
          parts.push_back(&center_layers.back());
        }
        per_relation[r] = ConcatColsF(parts);
      } else {
        per_relation[r] =
            layer_outputs.back().GatherRows(batch.rel_center_rows[r]);
      }
    }
  });

  // Eq. 12-14 (or the mean-pooling ablation).
  MatrixF fused;
  if (cfg_.use_semantic_attention) {
    std::vector<float> importance(static_cast<size_t>(R));
    for (int r = 0; r < R; ++r) {
      MatrixF s = per_relation[r].MatMulAddBias(m.sem_proj.w, m.sem_proj.b);
      s.TanhInPlace();
      importance[r] = s.MatMul(m.sem_q).Mean();  // Eq. 12
    }
    float mx = importance[0];
    for (int r = 1; r < R; ++r) mx = std::max(mx, importance[r]);
    std::vector<float> beta(static_cast<size_t>(R));
    float z = 0.0f;
    for (int r = 0; r < R; ++r) {
      beta[r] = std::exp(importance[r] - mx);
      z += beta[r];
    }
    fused = MatrixF(per_relation[0].rows(), per_relation[0].cols());
    for (int r = 0; r < R; ++r) {
      fused.Axpy(beta[r] / z, per_relation[r]);  // Eq. 13-14
    }
  } else {
    fused = per_relation[0];
    for (int r = 1; r < R; ++r) fused.Axpy(1.0f, per_relation[r]);
    fused.Scale(1.0f / static_cast<float>(R));
  }
  return fused.MatMulAddBias(m.head.w, m.head.b).ToDouble();  // Eq. 15
}

}  // namespace bsg
