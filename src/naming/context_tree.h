// The in-memory naming graph held by every name service replica.
//
// Pure data structure (no RPC): the NameServer applies the master-sequenced
// update stream to it, resolves reads from it, and snapshots it for state
// transfer to (re)joining replicas. Keeping it RPC-free makes the replication
// invariant testable: applying the same update sequence to two trees yields
// identical trees.

#ifndef SRC_NAMING_CONTEXT_TREE_H_
#define SRC_NAMING_CONTEXT_TREE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/naming/types.h"

namespace itv::naming {

class ContextTree {
 public:
  struct Node;

  struct Entry {
    wire::ObjectRef ref;          // Leaf objects, remote contexts, selectors.
    std::unique_ptr<Node> child;  // Set iff this entry is a local context.

    bool is_local_context() const { return child != nullptr; }
  };

  struct Node {
    bool replicated = false;
    // Exported-object bookkeeping (assigned by the NameServer, not the tree).
    uint64_t exported_id = 0;
    // Round-robin cursor for the builtin round-robin selector.
    uint64_t rr_cursor = 0;
    std::map<std::string, Entry> bindings;

    // Replica bindings of a replicated context (everything except the
    // selector). Deterministically name-ordered.
    std::vector<const Entry*> Replicas() const;
    std::vector<std::string> ReplicaNames() const;
    const Entry* FindSelector() const;
  };

  ContextTree();

  Node& root() { return *root_; }
  const Node& root() const { return *root_; }

  // Walks `path` through local contexts only, with no selector evaluation —
  // used for update application and for ListRepl. Fails with NOT_FOUND if a
  // component is missing or traverses a non-context.
  Result<Node*> WalkToContext(const Name& path);

  // Same walk, but starting at an arbitrary context node (the server uses
  // this for operations invoked on non-root context objects).
  static Result<Node*> WalkFrom(Node* from, const Name& path);

  // Applies one replicated update. Deterministic: identical sequences yield
  // identical trees. Bind into a missing parent context fails NOT_FOUND;
  // rebinding an existing name fails ALREADY_EXISTS (primary/backup election
  // depends on this, paper Section 5.2); unbinding a non-empty local context,
  // or binding over a local context in a selector slot, fails
  // FAILED_PRECONDITION.
  Status Apply(const NameUpdate& update);

  // Listing (no selector evaluation; the server layer applies selectors).
  Result<BindingList> List(const Name& path) const;

  // All non-context object references bound anywhere in the tree, with their
  // full paths — the audit scan (paper Section 4.7).
  struct BoundObject {
    Name path;
    wire::ObjectRef ref;
  };
  std::vector<BoundObject> AllBoundObjects() const;

  // Snapshot for state transfer.
  wire::Bytes EncodeSnapshot() const;
  static Result<ContextTree> DecodeSnapshot(const wire::Bytes& data);

  // Structural equality (testing the replication invariant).
  bool StructurallyEquals(const ContextTree& other) const;

  size_t node_count() const;

 private:
  static void EncodeNode(wire::Writer& w, const Node& node);
  static bool DecodeNode(wire::Reader& r, Node* node, int depth);
  static bool NodesEqual(const Node& a, const Node& b);
  static void CountNodes(const Node& node, size_t* count);
  static void CollectObjects(const Node& node, Name* prefix,
                             std::vector<BoundObject>* out);

  std::unique_ptr<Node> root_;
};

}  // namespace itv::naming

#endif  // SRC_NAMING_CONTEXT_TREE_H_
