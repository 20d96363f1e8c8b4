#include "views/view_cache.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "eval/evaluator.h"
#include "rewrite/candidates.h"
#include "util/thread_pool.h"

namespace xpv {

namespace {
// Cap on the total packed width of one multi-pattern evaluation group
// (`MultiEvaluator`): the DP row cost grows with the group's bit count, so
// the cap keeps each pass cheap per row while still amortizing the
// per-row fixed costs (child iteration, label lookup) across the group.
// Four machine words comfortably packs a realistic batch's worth of
// query-sized patterns.
constexpr int kMaxPackedBits = 256;
}  // namespace

MaterializedView::MaterializedView(ViewDefinition definition, const Tree& doc)
    : definition_(std::move(definition)), doc_(&doc) {
  outputs_ = Eval(definition_.pattern, doc);
}

MaterializedView::~MaterializedView() = default;
MaterializedView::MaterializedView(MaterializedView&&) noexcept = default;
MaterializedView& MaterializedView::operator=(MaterializedView&&) noexcept =
    default;

bool MaterializedView::ApplyUpdate(const TreeDeltaReport& report) {
  if (inc_ != nullptr) {
    inc_->ApplyUpdate(*doc_, report);
    outputs_ = inc_->outputs();
    return true;
  }
  // Cold DP state (first dirty update, or a skipped delta dropped it):
  // pay one full pass and keep the rows for the next delta. The pattern
  // pointer the state captures is this slot's `definition_` — stable, the
  // cache never moves a view it updates.
  inc_ = std::make_unique<IncrementalEvaluator>(definition_.pattern, *doc_);
  outputs_ = inc_->outputs();
  return false;
}

void MaterializedView::RemapOutputs(const std::vector<NodeId>& remap) {
  for (NodeId& o : outputs_) {
    assert(static_cast<size_t>(o) < remap.size() &&
           remap[static_cast<size_t>(o)] != kNoNode);
    o = remap[static_cast<size_t>(o)];
  }
}

void MaterializedView::Rematerialize() {
  inc_.reset();
  outputs_ = Eval(definition_.pattern, *doc_);
}

size_t MaterializedView::EstimatedBytes() const {
  // Estimate of the dominant payloads: the stored output ids, the name,
  // and the definition pattern's per-node arrays (labels, parents, edges,
  // child lists). The document is NOT counted — it is owned elsewhere.
  size_t bytes = sizeof(MaterializedView);
  bytes += outputs_.capacity() * sizeof(NodeId);
  if (inc_ != nullptr) bytes += inc_->EstimatedBytes();
  bytes += definition_.name.capacity();
  bytes += static_cast<size_t>(definition_.pattern.size()) *
           (sizeof(LabelId) + sizeof(NodeId) + sizeof(EdgeType) +
            sizeof(std::vector<NodeId>));
  return bytes;
}

std::vector<Tree> MaterializedView::MaterializeCopies() const {
  std::vector<Tree> copies;
  copies.reserve(outputs_.size());
  for (NodeId o : outputs_) copies.push_back(doc_->ExtractSubtree(o));
  return copies;
}

std::vector<NodeId> MaterializedView::Apply(const Pattern& r) const {
  if (r.IsEmpty() || outputs_.empty()) return {};
  // Anchored evaluation: the embedding DP is computed only over the union
  // of the stored subtrees, so the cost tracks the materialized result
  // size, not the document size. ONE multi-anchor selection sweep answers
  // every stored output together (already sorted and deduplicated), and
  // the thread-local kernel keeps the DP tables' storage warm across
  // Apply calls — a cold batch applies dozens of rewritings, and each
  // used to reallocate both bit-matrices and run one sweep per output.
  static thread_local EvalScratch apply_scratch;
  Evaluator evaluator(r, *doc_, outputs_, &apply_scratch);
  return evaluator.OutputsAnchoredAtAll(outputs_);
}

std::vector<std::vector<NodeId>> MaterializedView::ApplyMany(
    const std::vector<const Pattern*>& rs) const {
  std::vector<std::vector<NodeId>> results(rs.size());
  if (outputs_.empty()) return results;
  std::vector<size_t> todo;  // Nonempty rewritings, in order.
  todo.reserve(rs.size());
  for (size_t i = 0; i < rs.size(); ++i) {
    if (!rs[i]->IsEmpty()) todo.push_back(i);
  }
  // Pack the group into bounded-width sub-groups; each runs one anchored
  // DP over the stored subtrees and one multi-anchor sweep per rewriting.
  static thread_local EvalScratch apply_scratch;
  std::vector<const Pattern*> group;
  std::vector<size_t> group_idx;
  for (size_t g = 0; g < todo.size();) {
    group.clear();
    group_idx.clear();
    int bits = 0;
    while (g < todo.size() &&
           (group.empty() || bits + rs[todo[g]]->size() <= kMaxPackedBits)) {
      bits += rs[todo[g]]->size();
      group.push_back(rs[todo[g]]);
      group_idx.push_back(todo[g]);
      ++g;
    }
    MultiEvaluator evaluator(group, *doc_, outputs_, &apply_scratch);
    for (size_t k = 0; k < group.size(); ++k) {
      results[group_idx[k]] = evaluator.OutputsAnchoredAtAll(k, outputs_);
    }
  }
  return results;
}

ViewCache::ViewCache(const Tree& doc, RewriteOptions options,
                     ContainmentOracle* /*oracle*/)
    : doc_(&doc), options_(options) {}

ViewCache::~ViewCache() = default;
ViewCache::ViewCache(ViewCache&&) noexcept = default;
ViewCache& ViewCache::operator=(ViewCache&&) noexcept = default;

int ViewCache::AddView(ViewDefinition definition) {
  if (!free_slots_.empty()) {
    // Recycle the most recently tombstoned slot instead of growing
    // views_/active_/index_ forever under remove/re-add churn. ReplaceView
    // revives the slot (and unlinks it from the free list).
    const int slot = free_slots_.back();
    ReplaceView(slot, std::move(definition));
    return slot;
  }
  views_.emplace_back(std::move(definition), *doc_);
  active_.push_back(1);
  slot_bytes_.push_back(views_.back().EstimatedBytes());
  charge_.Set(charge_.bytes() + slot_bytes_.back());
  ++active_views_;
  index_.Add(views_.back().definition().pattern);
  ++epoch_;
  view_epochs_.push_back(1);
  return static_cast<int>(views_.size()) - 1;
}

void ViewCache::ReplaceView(int index, ViewDefinition definition) {
  const size_t i = static_cast<size_t>(index);
  views_[i] = MaterializedView(std::move(definition), *doc_);
  const size_t new_bytes = views_[i].EstimatedBytes();
  charge_.Set(charge_.bytes() - slot_bytes_[i] + new_bytes);
  slot_bytes_[i] = new_bytes;
  index_.Replace(index, views_[i].definition().pattern);
  if (active_[i] == 0) {
    // Reviving a tombstone: unlink it from the free list, or a later
    // AddView would recycle the slot and clobber this live view.
    free_slots_.erase(
        std::remove(free_slots_.begin(), free_slots_.end(), index),
        free_slots_.end());
    active_[i] = 1;
    ++active_views_;
  }
  ++epoch_;
  ++view_epochs_[i];
}

void ViewCache::RemoveView(int index) {
  const size_t i = static_cast<size_t>(index);
  if (active_[i] == 0) return;
  views_[i] = MaterializedView();  // Drop the materialized data.
  charge_.Set(charge_.bytes() - slot_bytes_[i]);
  slot_bytes_[i] = 0;
  index_.Remove(index);
  active_[i] = 0;
  --active_views_;
  free_slots_.push_back(index);
  ++epoch_;
  ++view_epochs_[i];
}

ViewUpdateStats ViewCache::ApplyUpdate(const TreeDeltaReport& report,
                                       double fallback_fraction) {
  ViewUpdateStats stats;
  if (report.touched_nodes == 0) return stats;  // Empty delta: no-op.
  ++doc_epoch_;
  // Compaction renumbered nodes: every id stored anywhere in the cache
  // stack (view outputs aside, which are remapped below) went stale, so
  // the shape epoch bumps and with it every memo key for this document.
  if (report.compacted) ++epoch_;
  // Fallback test: the rows the incremental path would recompute (touched
  // region + dirty ancestor chains + inserted suffix) as a fraction of the
  // document. Past the threshold a full per-view pass is both simpler and
  // no slower, and it resets the persistent DP state's size.
  const double dirty_rows = static_cast<double>(
      report.touched_nodes + static_cast<int>(report.dirty_prefix_desc.size()) +
      (report.new_size - static_cast<int>(report.suffix_start)));
  stats.fell_back =
      dirty_rows > fallback_fraction * static_cast<double>(report.new_size);
  size_t total_bytes = 0;
  for (size_t i = 0; i < views_.size(); ++i) {
    if (active_[i] == 0) continue;
    MaterializedView& view = views_[i];
    const int slot = static_cast<int>(i);
    if (stats.fell_back) {
      view.Rematerialize();
      ++view_epochs_[i];
      ++stats.views_rematerialized;
    } else if (DeltaMayAffectView(index_.view_summary(slot), report)) {
      if (view.ApplyUpdate(report)) {
        ++stats.views_patched;
      } else {
        ++stats.views_rematerialized;
      }
      ++view_epochs_[i];
    } else {
      // Provably unaffected: the stored outputs are already correct (the
      // delta can neither add nor remove an embedding of this pattern) —
      // at most their ids moved under compaction. A rewriting served
      // through the view reads subtree content below the outputs, so the
      // per-view epoch still bumps when the delta spliced inside one of
      // the result subtrees (the memo must not replay those answers);
      // under compaction the shape-epoch bump above already orphaned
      // every old entry, and post-update node structure is unreliable for
      // pre-delta anchor ids, so the walk is skipped.
      bool region_dirty = false;
      if (report.compacted) {
        view.RemapOutputs(report.remap);
      } else {
        const std::vector<NodeId>& outs = view.outputs();
        for (NodeId a : report.splice_anchors_old) {
          // Anchors are pre-existing nodes and, with no compaction, old
          // nodes keep their ids and parents — the post-delta parent
          // chain IS the pre-delta one.
          for (NodeId n = a;; n = doc_->parent(n)) {
            if (std::binary_search(outs.begin(), outs.end(), n)) {
              region_dirty = true;
              break;
            }
            if (n == doc_->root()) break;
          }
          if (region_dirty) break;
        }
      }
      if (region_dirty) ++view_epochs_[i];
      // The skipped delta leaves the persistent DP rows describing a tree
      // that no longer exists; the next dirty update must rebuild.
      view.DropIncrementalState();
      ++stats.views_untouched;
    }
    slot_bytes_[i] = view.EstimatedBytes();
  }
  for (size_t b : slot_bytes_) total_bytes += b;
  charge_.Set(total_bytes);
  return stats;
}

bool ViewCache::FindRewrite(const Pattern& query,
                            const SelectionSummary& summary, int prebuilt_vi,
                            const CandidateBundle* prebuilt,
                            const RewriteOptions& options, CacheStats* stats,
                            int* vi_out, Pattern* rewriting_out) const {
  for (int vi = 0; vi < index_.size(); ++vi) {
    // O(1) pruning: views that fail the necessary conditions never reach
    // the engine (this is what `ViolatesBasicNecessaryConditions` would
    // certify as kNotExists).
    if (!index_.Admissible(summary, vi)) continue;
    const MaterializedView& view = views_[static_cast<size_t>(vi)];
    const Pattern& vp = view.definition().pattern;
    // Non-prebuilt bundles are rebuilt into thread-local recycled storage:
    // only one is live at a time (DecideRewrite copies anything it
    // returns), so each view scan reuses the previous scan's buffers.
    static thread_local CandidateBundle scratch_bundle;
    static thread_local std::vector<NodeId> scratch_map;
    const CandidateBundle* bundle = prebuilt;
    if (vi != prebuilt_vi || bundle == nullptr) {
      MakeCandidateBundleInto(query, vp, index_.view_summary(vi).depth,
                              &scratch_bundle, &scratch_map);
      bundle = &scratch_bundle;
    }
    RewriteResult result = DecideRewrite(query, vp, options, bundle);
    if (result.status == RewriteStatus::kFound) {
      *vi_out = vi;
      *rewriting_out = std::move(result.rewriting);
      ++stats->hits;
      return true;
    }
    if (result.status == RewriteStatus::kUnknown) ++stats->rewrite_unknown;
  }
  return false;
}

std::vector<PlannedAnswer> ViewCache::Execute(
    const std::vector<PlannedQuery>& queries, int num_workers,
    ThreadPool* pool, SynchronizedOracle* oracle) const {
  std::vector<PlannedAnswer> answers(queries.size());

  // Answers entries [begin, end) through `shard`: builds each entry's
  // candidate bundle over its first admissible view once, warms the shard
  // with the forward pairs in one ContainedMany batch, then scans. Runs on
  // worker threads; touches only the given range and local state.
  auto process = [this, &queries, &answers](int begin, int end,
                                            ContainmentOracle* shard) {
    RewriteOptions options = options_;
    options.oracle = shard;
    // Recycled per-worker bundle storage (stable addresses for `pairs`):
    // the pool outlives the chunk on its worker thread, so every chunk
    // after the first rebuilds its bundles into warm buffers.
    static thread_local BundlePool bundle_pool;
    bundle_pool.Rewind();
    std::vector<const CandidateBundle*> bundle_of(
        static_cast<size_t>(end - begin), nullptr);
    std::vector<int> first_admissible(static_cast<size_t>(end - begin), -1);
    std::vector<std::pair<const Pattern*, const Pattern*>> pairs;
    pairs.reserve(2 * static_cast<size_t>(end - begin));
    for (int ii = begin; ii < end; ++ii) {
      const PlannedQuery& item = queries[static_cast<size_t>(ii)];
      const int vi = index_.FirstAdmissible(*item.summary);
      first_admissible[static_cast<size_t>(ii - begin)] = vi;
      if (vi < 0) continue;
      const CandidateBundle& bundle = bundle_pool.Build(
          *item.pattern, views_[static_cast<size_t>(vi)].definition().pattern,
          index_.view_summary(vi).depth);
      bundle_of[static_cast<size_t>(ii - begin)] = &bundle;
      AppendBundlePairs(bundle, *item.pattern, &pairs);
    }
    // discard: batch call warms the oracle's memo — the per-pair answers
    // are re-read from it by the DecideRewrite calls below.
    (void)shard->ContainedMany(pairs);
    // Rewrite decisions first, answer production batched afterwards: the
    // chunk's hits are grouped per view so each view runs ONE anchored DP
    // for all its rewritings (`ApplyMany`), and the misses share packed
    // full-document evaluations (`MultiEvaluator`) instead of one DP pass
    // per query. Per item the produced answer — and the stats delta, which
    // `FindRewrite` fills during the decision — is identical to applying
    // the item's rewriting (or evaluating it) on its own.
    std::vector<std::pair<int, int>> hits;  // (view slot, item index).
    std::vector<int> misses;
    for (int ii = begin; ii < end; ++ii) {
      const PlannedQuery& item = queries[static_cast<size_t>(ii)];
      PlannedAnswer& out = answers[static_cast<size_t>(ii)];
      out.delta.queries = 1;
      int vi = -1;
      if (FindRewrite(*item.pattern, *item.summary,
                      first_admissible[static_cast<size_t>(ii - begin)],
                      bundle_of[static_cast<size_t>(ii - begin)], options,
                      &out.delta, &vi, &out.answer.rewriting)) {
        out.answer.hit = true;
        out.answer.view_slot = vi;
        out.answer.view_name =
            views_[static_cast<size_t>(vi)].definition().name;
        hits.emplace_back(vi, ii);
      } else {
        misses.push_back(ii);
      }
    }
    std::sort(hits.begin(), hits.end());  // Group by view, items in order.
    std::vector<const Pattern*> group;
    std::vector<int> group_items;
    for (size_t h = 0; h < hits.size();) {
      const int vi = hits[h].first;
      group.clear();
      group_items.clear();
      while (h < hits.size() && hits[h].first == vi) {
        group_items.push_back(hits[h].second);
        group.push_back(
            &answers[static_cast<size_t>(hits[h].second)].answer.rewriting);
        ++h;
      }
      std::vector<std::vector<NodeId>> outs =
          views_[static_cast<size_t>(vi)].ApplyMany(group);
      for (size_t k = 0; k < group_items.size(); ++k) {
        answers[static_cast<size_t>(group_items[k])].answer.outputs =
            std::move(outs[k]);
      }
    }
    if (!misses.empty()) {
      // Full-document fallbacks, packed in bounded-width groups (plan
      // entries are nonempty by construction). The thread-local kernel
      // keeps the full-size DP tables allocated across chunks.
      static thread_local EvalScratch fallback_scratch;
      for (size_t m = 0; m < misses.size();) {
        group.clear();
        group_items.clear();
        int bits = 0;
        while (m < misses.size()) {
          const Pattern* p =
              queries[static_cast<size_t>(misses[m])].pattern;
          if (!group.empty() && bits + p->size() > kMaxPackedBits) break;
          bits += p->size();
          group.push_back(p);
          group_items.push_back(misses[m]);
          ++m;
        }
        MultiEvaluator evaluator(group, *doc_, &fallback_scratch);
        for (size_t k = 0; k < group_items.size(); ++k) {
          answers[static_cast<size_t>(group_items[k])].answer.outputs =
              evaluator.Outputs(k);
        }
      }
    }
  };

  const int n_items = static_cast<int>(queries.size());
  // Without a pool the batch runs as one chunk on the calling thread
  // (answers and statistics do not depend on the chunk partition).
  const int workers =
      pool == nullptr ? 1 : std::clamp(num_workers, 1, std::max(n_items, 1));
  if (workers == 1) {
    // A private shard keeps the heavy containment work outside any lock:
    // read-throughs take the shared lock, the merge the exclusive one.
    ContainmentOracle local(oracle->capacity());
    oracle->AttachShard(&local);
    process(0, n_items, &local);
    oracle->Absorb(local);
    return answers;
  }
  // Per-worker shards read through the shared oracle under its shared
  // lock; the merge below publishes the batch's new entries (and
  // counters) back into it.
  std::vector<std::unique_ptr<ContainmentOracle>> shards;
  shards.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    shards.push_back(std::make_unique<ContainmentOracle>(oracle->capacity()));
    oracle->AttachShard(shards.back().get());
  }
  // The group is awaited rather than the pool: the Service shares ONE
  // pool across concurrent batches, and this batch must not wait out (or
  // be starved by) the others' submissions. The group carries the
  // submitting call's cancel token, and each worker task re-installs it as
  // its thread's current token — the caller's deadline reaches the kernels
  // on every worker, and once it expires the still-queued chunks are
  // skipped instead of ground through.
  const CancelToken cancel = CancelScope::Current();
  ThreadPool::TaskGroup group(pool, cancel);
  const int base = n_items / workers;
  const int extra = n_items % workers;
  int begin = 0;
  for (int w = 0; w < workers; ++w) {
    const int end = begin + base + (w < extra ? 1 : 0);
    ContainmentOracle* shard = shards[static_cast<size_t>(w)].get();
    group.Submit([&process, begin, end, shard, &cancel] {
      CancelScope scope(cancel);
      PollCancellation();  // Don't start a chunk on a dead deadline.
      process(begin, end, shard);
    });
    begin = end;
  }
  group.Wait();
  // Completed shards are absorbed even when a worker failed — their
  // containment entries are valid regardless — and the first worker
  // exception then resurfaces here with its original type, for the facade
  // to map into a structured error.
  for (const auto& shard : shards) oracle->Absorb(*shard);
  group.RethrowIfFailed();
  return answers;
}

}  // namespace xpv
