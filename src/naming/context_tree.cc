#include "src/naming/context_tree.h"

#include <algorithm>

#include "src/wire/shard_map.h"

namespace itv::naming {

namespace {
constexpr int kMaxDepth = 32;
}  // namespace

std::vector<const ContextTree::Entry*> ContextTree::Node::Replicas() const {
  std::vector<const Entry*> out;
  for (const auto& [name, entry] : bindings) {
    if (name != kSelectorBindingName) {
      out.push_back(&entry);
    }
  }
  return out;
}

std::vector<std::string> ContextTree::Node::ReplicaNames() const {
  std::vector<std::string> out;
  for (const auto& [name, entry] : bindings) {
    if (name != kSelectorBindingName) {
      out.push_back(name);
    }
  }
  return out;
}

const ContextTree::Entry* ContextTree::Node::FindSelector() const {
  auto it = bindings.find(std::string(kSelectorBindingName));
  return it == bindings.end() ? nullptr : &it->second;
}

ContextTree::ContextTree() : root_(std::make_unique<Node>()) {}

Result<ContextTree::Node*> ContextTree::WalkToContext(const Name& path) {
  return WalkFrom(root_.get(), path);
}

Result<ContextTree::Node*> ContextTree::WalkFrom(Node* from, const Name& path) {
  Node* node = from;
  for (const std::string& component : path) {
    auto it = node->bindings.find(component);
    if (it == node->bindings.end()) {
      return NotFoundError("no binding for " + JoinPath(path) + " (at '" +
                           component + "')");
    }
    if (!it->second.is_local_context()) {
      return NotFoundError("'" + component + "' in " + JoinPath(path) +
                           " is not a local context");
    }
    node = it->second.child.get();
  }
  return node;
}

Status ContextTree::Apply(const NameUpdate& update) {
  if (update.path.empty()) {
    return InvalidArgumentError("empty name");
  }
  Name parent_path(update.path.begin(), update.path.end() - 1);
  const std::string& leaf = update.path.back();

  ITV_ASSIGN_OR_RETURN(Node * parent, WalkToContext(parent_path));

  switch (update.op) {
    case NameOp::kBind: {
      // The selector slot of a replicated context is rebindable (operators
      // swap policies live); everything else is first-bind-wins.
      bool is_selector_slot =
          parent->replicated && leaf == kSelectorBindingName;
      auto it = parent->bindings.find(leaf);
      if (it != parent->bindings.end() && !is_selector_slot) {
        return AlreadyExistsError(JoinPath(update.path) + " is already bound");
      }
      if (it != parent->bindings.end() && it->second.is_local_context()) {
        // Only a policy ref may be swapped in; a context there (and anything
        // bound under it) is never silently destroyed.
        return FailedPreconditionError(JoinPath(update.path) +
                                       " is a local context");
      }
      Entry entry;
      entry.ref = update.ref;
      parent->bindings[leaf] = std::move(entry);
      return OkStatus();
    }
    case NameOp::kUnbind: {
      auto it = parent->bindings.find(leaf);
      if (it == parent->bindings.end()) {
        return NotFoundError(JoinPath(update.path) + " is not bound");
      }
      if (it->second.is_local_context() &&
          !it->second.child->bindings.empty()) {
        return FailedPreconditionError(JoinPath(update.path) +
                                       " is a non-empty context");
      }
      parent->bindings.erase(it);
      return OkStatus();
    }
    case NameOp::kBindNewContext:
    case NameOp::kBindReplContext: {
      if (parent->bindings.count(leaf) > 0) {
        return AlreadyExistsError(JoinPath(update.path) + " is already bound");
      }
      Entry entry;
      entry.child = std::make_unique<Node>();
      entry.child->replicated = update.op == NameOp::kBindReplContext;
      parent->bindings[leaf] = std::move(entry);
      return OkStatus();
    }
  }
  return InvalidArgumentError("unknown name operation");
}

Result<BindingList> ContextTree::List(const Name& path) const {
  ContextTree* self = const_cast<ContextTree*>(this);
  ITV_ASSIGN_OR_RETURN(Node * node, self->WalkToContext(path));
  BindingList out;
  for (const auto& [name, entry] : node->bindings) {
    Binding b;
    b.name = name;
    if (entry.is_local_context()) {
      b.kind = entry.child->replicated ? BindingKind::kReplContext
                                       : BindingKind::kContext;
    } else {
      b.kind = BindingKind::kObject;
      b.ref = entry.ref;
    }
    out.push_back(std::move(b));
  }
  return out;
}

void ContextTree::CollectObjects(const Node& node, Name* prefix,
                                 std::vector<BoundObject>* out) {
  for (const auto& [name, entry] : node.bindings) {
    prefix->push_back(name);
    if (entry.is_local_context()) {
      CollectObjects(*entry.child, prefix, out);
    } else if (!IsBuiltinSelectorRef(entry.ref) &&
               !wire::IsShardMapRef(entry.ref) && !entry.ref.is_null()) {
      // Selector and shard-map pseudo-refs describe routing policy, not live
      // servants; auditing must never treat them as dead objects to unbind.
      out->push_back(BoundObject{*prefix, entry.ref});
    }
    prefix->pop_back();
  }
}

std::vector<ContextTree::BoundObject> ContextTree::AllBoundObjects() const {
  std::vector<BoundObject> out;
  Name prefix;
  CollectObjects(*root_, &prefix, &out);
  return out;
}

void ContextTree::EncodeNode(wire::Writer& w, const Node& node) {
  w.WriteBool(node.replicated);
  w.WriteU32(static_cast<uint32_t>(node.bindings.size()));
  for (const auto& [name, entry] : node.bindings) {
    w.WriteString(name);
    w.WriteBool(entry.is_local_context());
    if (entry.is_local_context()) {
      EncodeNode(w, *entry.child);
    } else {
      WireWrite(w, entry.ref);
    }
  }
}

bool ContextTree::DecodeNode(wire::Reader& r, Node* node, int depth) {
  if (depth > kMaxDepth) {
    return false;
  }
  node->replicated = r.ReadBool();
  uint32_t count = r.ReadU32();
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    std::string name = r.ReadString();
    bool is_context = r.ReadBool();
    Entry entry;
    if (is_context) {
      entry.child = std::make_unique<Node>();
      if (!DecodeNode(r, entry.child.get(), depth + 1)) {
        return false;
      }
    } else {
      WireRead(r, &entry.ref);
    }
    node->bindings[name] = std::move(entry);
  }
  return r.ok();
}

wire::Bytes ContextTree::EncodeSnapshot() const {
  wire::Writer w;
  EncodeNode(w, *root_);
  return w.TakeBytes();
}

Result<ContextTree> ContextTree::DecodeSnapshot(const wire::Bytes& data) {
  ContextTree tree;
  wire::Reader r(data);
  if (!DecodeNode(r, tree.root_.get(), 0) || r.remaining() != 0) {
    return DataLossError("corrupt name-space snapshot");
  }
  return tree;
}

bool ContextTree::NodesEqual(const Node& a, const Node& b) {
  if (a.replicated != b.replicated || a.bindings.size() != b.bindings.size()) {
    return false;
  }
  auto ita = a.bindings.begin();
  auto itb = b.bindings.begin();
  for (; ita != a.bindings.end(); ++ita, ++itb) {
    if (ita->first != itb->first) {
      return false;
    }
    bool a_ctx = ita->second.is_local_context();
    if (a_ctx != itb->second.is_local_context()) {
      return false;
    }
    if (a_ctx) {
      if (!NodesEqual(*ita->second.child, *itb->second.child)) {
        return false;
      }
    } else if (ita->second.ref != itb->second.ref) {
      return false;
    }
  }
  return true;
}

bool ContextTree::StructurallyEquals(const ContextTree& other) const {
  return NodesEqual(*root_, *other.root_);
}

void ContextTree::CountNodes(const Node& node, size_t* count) {
  ++*count;
  for (const auto& [name, entry] : node.bindings) {
    if (entry.is_local_context()) {
      CountNodes(*entry.child, count);
    }
  }
}

size_t ContextTree::node_count() const {
  size_t count = 0;
  CountNodes(*root_, &count);
  return count;
}

}  // namespace itv::naming
