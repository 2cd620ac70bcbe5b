#include "models/slimg.h"

namespace bsg {

SlimGModel::SlimGModel(const HeteroGraph& graph, ModelConfig cfg,
                       uint64_t seed, std::string name)
    : Model(graph, cfg, seed, std::move(name)) {
  // Precompute the propagated design matrix with plain matrix math (no
  // autograd): hop h is Â^h X.
  Csr adj = graph.MergedGraph().Normalized(CsrNorm::kSym);
  Matrix design = graph.features;
  Matrix hop = graph.features;
  for (int h = 0; h < cfg_.slimg_hops; ++h) {
    hop = Spmm(adj, hop);
    design = ConcatCols<Matrix>({&design, &hop});
  }
  propagated_ = MakeTensor(std::move(design), /*requires_grad=*/false);
  fc_ = Linear(propagated_->cols(), cfg_.num_classes, &store_, &rng_,
               name_ + ".fc");
}

Tensor SlimGModel::Forward(bool training) {
  Tensor x = ops::Dropout(propagated_, cfg_.dropout * 0.5, training, &rng_);
  return fc_.Forward(x);
}

}  // namespace bsg
