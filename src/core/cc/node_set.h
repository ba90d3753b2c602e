#ifndef P4DB_CORE_CC_NODE_SET_H_
#define P4DB_CORE_CC_NODE_SET_H_

#include "common/small_vector.h"
#include "common/types.h"

namespace p4db::core::cc {

/// Small set of node ids for the release/commit fan-out paths, iterated in
/// insertion order. Each walk releases one transaction's locks on distinct
/// lock managers, so the order never changes what a run computes.
class NodeSet {
 public:
  void insert(NodeId n) {
    if (!contains(n)) ids_.push_back(n);
  }
  bool empty() const { return ids_.empty(); }
  bool contains(NodeId n) const {
    for (NodeId have : ids_) {
      if (have == n) return true;
    }
    return false;
  }

  const NodeId* begin() const { return ids_.begin(); }
  const NodeId* end() const { return ids_.end(); }

 private:
  SmallVector<NodeId, 8> ids_;
};

}  // namespace p4db::core::cc

#endif  // P4DB_CORE_CC_NODE_SET_H_
