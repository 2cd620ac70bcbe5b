// The mixed-precision serving shadow of a frozen BSG4Bot model.
//
// Training and the serving oracle stay double precision (the bit-identity
// harness depends on it); this struct is the one-time f32 conversion of
// everything the inference forward pass reads — layer weights, semantic
// attention, the classifier head and the node features. Bsg4Bot
// materialises it on EnsureF32Shadow() and refreshes it when
// RestoreFromCheckpoint replaces the parameters, so the shadow can never
// drift from the doubles it mirrors across a checkpoint reload. Subgraph
// assembly stays f64 in both precisions (they share cache entries), so the
// shadow carries no pre-classifier state.
//
// The shadow is read-only at scoring time: Bsg4Bot::ScoreBatchF32 runs the
// whole forward (Eq. 9-15) over MatrixF kernels with no autograd graph and
// no per-call conversion work.
#pragma once

#include <vector>

#include "tensor/matrix_f.h"

namespace bsg {

/// One affine layer's weights, narrowed to f32.
struct LinearF32 {
  MatrixF w;  ///< in_dim x out_dim
  MatrixF b;  ///< 1 x out_dim
};

/// Everything the f32 forward pass reads, converted once from the f64 model.
struct Bsg4BotF32 {
  MatrixF features;  ///< num_nodes x feature_dim node features

  LinearF32 input;                          ///< shared transform (Eq. 9)
  std::vector<std::vector<LinearF32>> gcn;  ///< [relation][layer] (Eq. 10)
  LinearF32 sem_proj;  ///< semantic-attention projection W, b (Eq. 12)
  MatrixF sem_q;       ///< semantic vector q, att_dim x 1 (Eq. 12)
  LinearF32 head;      ///< classifier head (Eq. 15)
};

}  // namespace bsg
