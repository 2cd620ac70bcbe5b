// Semantic attention over per-relation embeddings (paper Eq. 12-14).
//
// Given R per-relation node embedding matrices H_r (n x d), computes
//   w_r    = mean_i q^T tanh(W h_i^r + b)          (Eq. 12)
//   beta_r = softmax_r(w_r)                        (Eq. 13)
//   out    = sum_r beta_r * H_r                    (Eq. 14)
// with W, b, q shared across relations. Used by both the BSG4Bot head and
// the RGT baseline.
#pragma once

#include <vector>

#include "tensor/nn.h"
#include "tensor/ops.h"

namespace bsg {

/// Trainable semantic attention combiner.
class SemanticAttention {
 public:
  SemanticAttention() = default;

  /// `dim` is the per-relation embedding width; `att_dim` the projection
  /// width of the attention MLP.
  SemanticAttention(int dim, int att_dim, ParamStore* store, Rng* rng,
                    const std::string& name = "sematt");

  /// Fuses the per-relation embeddings (all n x dim). Returns n x dim.
  /// When `beta` is non-null it receives the relation weights (Eq. 13).
  Tensor Forward(const std::vector<Tensor>& relation_embeddings,
                 std::vector<double>* beta = nullptr) const;

  /// The learned parameters, read in place by BSG4Bot's inference forward
  /// and converted once into its f32 shadow.
  const Linear& proj() const { return proj_; }
  const Tensor& q() const { return q_; }

 private:
  Linear proj_;   // W, b
  Tensor q_;      // att_dim x 1 semantic vector
};

/// Mean-pooling fallback used by the Table V ablation ("replacing semantic
/// attention with mean pooling").
Tensor MeanPoolRelations(const std::vector<Tensor>& relation_embeddings);

}  // namespace bsg
