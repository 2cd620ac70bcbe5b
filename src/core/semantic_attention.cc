#include "core/semantic_attention.h"

namespace bsg {

SemanticAttention::SemanticAttention(int dim, int att_dim, ParamStore* store,
                                     Rng* rng, const std::string& name)
    : proj_(dim, att_dim, store, rng, name + ".proj") {
  q_ = store->CreateXavier(att_dim, 1, rng, name + ".q");
}

Tensor SemanticAttention::Forward(
    const std::vector<Tensor>& relation_embeddings,
    std::vector<double>* beta) const {
  BSG_CHECK(!relation_embeddings.empty(), "semantic attention on 0 relations");
  BSG_CHECK(q_ != nullptr, "SemanticAttention used before initialisation");
  const size_t R = relation_embeddings.size();
  // Per-relation scalar importance w_r (1x1 tensors), stacked to 1xR.
  std::vector<Tensor> importances;
  importances.reserve(R);
  for (const Tensor& h : relation_embeddings) {
    Tensor scores = ops::MatMul(ops::Tanh(proj_.Forward(h)), q_);  // n x 1
    importances.push_back(ops::MeanAll(scores));                   // 1 x 1
  }
  Tensor stacked = ops::ConcatCols(importances);  // 1 x R
  Tensor betas = ops::SoftmaxRows(stacked);       // 1 x R

  if (beta != nullptr) {
    beta->assign(betas->value.data(), betas->value.data() + R);
  }

  Tensor out;
  for (size_t r = 0; r < R; ++r) {
    Tensor scaled = ops::ScaleByScalar(
        relation_embeddings[r], ops::ElementAt(betas, 0, static_cast<int>(r)));
    out = (r == 0) ? scaled : ops::Add(out, scaled);
  }
  return out;
}

Tensor MeanPoolRelations(const std::vector<Tensor>& relation_embeddings) {
  BSG_CHECK(!relation_embeddings.empty(), "mean pool on 0 relations");
  Tensor out = relation_embeddings[0];
  for (size_t r = 1; r < relation_embeddings.size(); ++r) {
    out = ops::Add(out, relation_embeddings[r]);
  }
  return ops::Scale(out, 1.0 / static_cast<double>(relation_embeddings.size()));
}

}  // namespace bsg
