#ifndef P4DB_CORE_CC_NODE_SET_H_
#define P4DB_CORE_CC_NODE_SET_H_

#include <cstddef>

#include "common/small_vector.h"
#include "common/types.h"

namespace p4db::core::cc {

/// Small set of node ids for the release/commit fan-out paths.
///
/// These sets used to be std::unordered_set<NodeId>; with small distinct
/// integer ids libstdc++ iterates those in REVERSE insertion order (each
/// insert prepends within its bucket and node counts never trigger a
/// rehash). The sets are iterated to SCHEDULE simulator events, so the
/// allocation-free replacement must reproduce that exact order for seeded
/// runs to stay byte-identical with pre-refactor metric dumps:
/// append-unique, then walk back-to-front.
class NodeSet {
 public:
  void insert(NodeId n) {
    for (NodeId have : ids_) {
      if (have == n) return;
    }
    ids_.push_back(n);
  }
  bool empty() const { return ids_.empty(); }
  bool contains(NodeId n) const {
    for (NodeId have : ids_) {
      if (have == n) return true;
    }
    return false;
  }

  /// Applies `fn` to every node in reverse insertion order.
  template <typename Fn>
  void ForEachReverse(Fn&& fn) const {
    for (size_t i = ids_.size(); i-- > 0;) fn(ids_[i]);
  }

 private:
  SmallVector<NodeId, 8> ids_;
};

}  // namespace p4db::core::cc

#endif  // P4DB_CORE_CC_NODE_SET_H_
