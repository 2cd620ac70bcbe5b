// Batching of biased subgraphs for training (paper §III-F): the per-centre
// subgraphs of one batch are stacked block-diagonally per relation, so a
// single SpMM per relation drives message passing for the whole batch.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "core/biased_subgraph.h"
#include "tensor/ops.h"

namespace bsg {

/// One training/inference batch over a set of centres.
struct SubgraphBatch {
  std::vector<int> centers;  ///< global centre ids, batch order

  /// Per relation r: block-diagonal normalised adjacency over the stacked
  /// subgraphs of all centres.
  std::vector<SpMat> rel_adjs;
  /// Per relation r: global node id for every stacked local row.
  std::vector<std::vector<int>> rel_node_ids;
  /// Per relation r: row index of each centre within the stacking.
  std::vector<std::vector<int>> rel_center_rows;

  /// Per relation r: rel_adjs[r].fwd's edge weights pre-cast to float, so
  /// the f32 serving SpMM streams 4-byte weights. Empty unless a producer
  /// stacking for the f32 path filled it (Spmm falls back to casting the
  /// doubles per edge); shared_ptr so recycling can pool the buffers.
  std::vector<std::shared_ptr<const std::vector<float>>> rel_weights_f32;

  /// The f32 weights of relation r, or nullptr when not populated.
  const std::vector<float>* RelWeightsF32(int r) const {
    return static_cast<size_t>(r) < rel_weights_f32.size() &&
                   rel_weights_f32[r] != nullptr
               ? rel_weights_f32[r].get()
               : nullptr;
  }
};

/// Assembles a batch from the precomputed subgraphs of `centers`.
/// `subgraphs` is indexed by global node id (BuildAllSubgraphs output).
SubgraphBatch MakeSubgraphBatch(const std::vector<BiasedSubgraph>& subgraphs,
                                const std::vector<int>& centers,
                                int num_relations);

/// Assembles a batch from per-centre subgraph pointers: subgraphs[i] is the
/// biased subgraph rooted at centers[i]. This is the serving path — the
/// subgraphs come from a SubgraphCache, not a dense per-node vector — and
/// the stacking is bit-identical to the dense overload for equal inputs.
SubgraphBatch MakeSubgraphBatch(
    const std::vector<const BiasedSubgraph*>& subgraphs,
    const std::vector<int>& centers, int num_relations);

/// Observability counters for one BatchStacker (cumulative).
struct BatchStackerStats {
  uint64_t batches_stacked = 0;   ///< Stack() calls
  uint64_t carcass_reuses = 0;    ///< batches rebuilt inside a recycled carcass
  uint64_t csr_reuses = 0;        ///< stacked adjacencies rebuilt in place
  uint64_t weights_f32_reuses = 0;  ///< pooled f32 weight buffers reused
};

/// Pooled batch-stacking workspace: the warm-serving counterpart of
/// MakeSubgraphBatch. MakeSubgraphBatch allocates every batch from scratch
/// — block vectors, stacked CSR arrays, normalisation weights — which is
/// fine for training (batches are cached or amortised by the optimiser) but
/// is the last per-batch heap traffic on the serving path. A BatchStacker
/// reuses everything:
///
///   - Stack() builds the batch inside a recycled SubgraphBatch carcass
///     (vectors keep their capacity across batches) using
///     Csr::StackSymNormalizedInto, which fuses block-diagonal stacking,
///     self-loop insertion and symmetric normalisation into one pass over
///     storage that persists between calls;
///   - Recycle() takes a consumed batch back; its CSR arrays, id vectors
///     and f32 weight buffers return to the stacker's free lists.
///
/// After one warm-up batch per shape class, Stack() performs ~0 heap
/// allocations (asserted by tests/test_batch_stacker.cc with the counting
/// allocator). The stacked adjacency is bit-identical to
/// MakeSubgraphBatch's — the SpMat's bwd aliases fwd instead of holding a
/// materialised transpose, which is exact because the stacked subgraph
/// adjacency is symmetric and inference never runs the backward pass.
///
/// Threading: Stack() runs on one producer thread at a time (the engine's
/// serialisation contract); Recycle() may race with it from the consumer
/// thread, so the free lists are mutex-guarded.
class BatchStacker {
 public:
  /// `with_f32_weights` additionally materialises rel_weights_f32 on every
  /// stacked batch (one cast per edge at stacking time, pooled buffers).
  explicit BatchStacker(int num_relations, bool with_f32_weights = false);

  /// Stacks the batch for `centers` (subgraphs[i] rooted at centers[i]).
  /// Equivalent to MakeSubgraphBatch(subgraphs, centers, num_relations),
  /// with bwd == fwd on every SpMat.
  SubgraphBatch Stack(const std::vector<const BiasedSubgraph*>& subgraphs,
                      const std::vector<int>& centers);

  /// Returns a consumed batch's storage to the free lists. The batch must
  /// no longer be referenced (adjacencies still shared elsewhere are left
  /// to die with their last owner instead of being pooled).
  void Recycle(SubgraphBatch&& batch);

  BatchStackerStats Stats() const;

 private:
  /// Pops a pooled mutable Csr (or makes a fresh one).
  std::shared_ptr<Csr> AcquireCsr(bool* reused);
  std::shared_ptr<std::vector<float>> AcquireWeightsF32(bool* reused);

  const int num_relations_;
  const bool with_f32_weights_;

  // Producer-thread scratch, reused across Stack() calls.
  std::vector<const Csr*> blocks_;
  std::vector<double> inv_sqrt_deg_;
  std::vector<std::shared_ptr<Csr>> csr_scratch_;
  std::vector<std::shared_ptr<std::vector<float>>> w32_scratch_;

  // Free lists, shared between the producer (Stack) and whichever thread
  // consumed the batch (Recycle).
  mutable std::mutex mu_;
  std::vector<SubgraphBatch> carcasses_;
  std::vector<std::shared_ptr<Csr>> csr_pool_;
  std::vector<std::shared_ptr<std::vector<float>>> weights_pool_;

  BatchStackerStats stats_;
};

}  // namespace bsg
