// An IL+XDP program: array declarations (with their HPF distributions and
// compiler-chosen segmentations) plus a statement body executed SPMD-style
// on every processor. Universal scalars need no declaration — each
// processor materializes its own copy on first assignment (paper 2.1:
// "If an element is universally owned, each processor has a copy").
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "xdp/il/stmt.hpp"
#include "xdp/rt/symbol.hpp"

namespace xdp::il {

struct ArrayDecl {
  std::string name;
  rt::ElemType type = rt::ElemType::F64;
  sec::Section global;
  dist::Distribution dist;
  dist::SegmentShape segShape{};
};

struct Program {
  int nprocs = 1;
  std::vector<ArrayDecl> arrays;
  StmtPtr body;

  const ArrayDecl& decl(int sym) const;
  int findSymbol(const std::string& name) const;  ///< -1 if absent

  /// Add a (possibly compiler-generated) array; returns its symbol index.
  int addArray(ArrayDecl d);

  /// Fresh link id for pairing a send with its receive.
  int freshLink() { return nextLink_++; }

 private:
  int nextLink_ = 0;
};

/// Dense ids of a program's universal scalars. Every ScalarRef expression
/// and every statement that binds a scalar (assignment, loop variable)
/// reachable from `prog.body` maps to the id of its name; names get ids
/// in the order of a fixed pre-order walk (shared subtrees once). The
/// interpreter, the bytecode VM (as register numbers) and the verifier
/// keep their scalars in slots by these ids.
class ScalarIds {
 public:
  explicit ScalarIds(const Program& prog);

  int count() const { return static_cast<int>(names_.size()); }

  /// The name with id `id`.
  const std::string& name(int id) const {
    return names_[static_cast<std::size_t>(id)];
  }

  /// The id of a scalar reference, or -1 if `e` is not one of the
  /// program's ScalarRef nodes.
  int ofRef(const Expr* e) const {
    auto it = refs_.find(e);
    return it == refs_.end() ? -1 : it->second;
  }

  /// The id bound by an assignment or loop, or -1 if `s` is not one of
  /// the program's binding statements.
  int ofBind(const Stmt* s) const {
    auto it = binds_.find(s);
    return it == binds_.end() ? -1 : it->second;
  }

 private:
  std::vector<std::string> names_;
  std::unordered_map<const Expr*, int> refs_;
  std::unordered_map<const Stmt*, int> binds_;
};

}  // namespace xdp::il
