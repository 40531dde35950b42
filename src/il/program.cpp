#include "xdp/il/program.hpp"

#include <functional>
#include <unordered_set>

#include "xdp/support/check.hpp"

namespace xdp::il {

const ArrayDecl& Program::decl(int sym) const {
  XDP_CHECK(sym >= 0 && sym < static_cast<int>(arrays.size()),
            "bad symbol index");
  return arrays[static_cast<std::size_t>(sym)];
}

int Program::findSymbol(const std::string& name) const {
  for (std::size_t i = 0; i < arrays.size(); ++i)
    if (arrays[i].name == name) return static_cast<int>(i);
  return -1;
}

int Program::addArray(ArrayDecl d) {
  XDP_CHECK(findSymbol(d.name) < 0, "duplicate array name: " + d.name);
  arrays.push_back(std::move(d));
  return static_cast<int>(arrays.size()) - 1;
}

ScalarIds::ScalarIds(const Program& prog) {
  std::unordered_map<std::string, int> byName;
  auto intern = [&](const std::string& n) {
    auto [it, fresh] = byName.emplace(n, count());
    if (fresh) names_.push_back(n);
    return it->second;
  };
  std::unordered_set<const void*> seen;  // the program may share subtrees

  std::function<void(const ExprPtr&)> walkExpr;
  std::function<void(const SectionExprPtr&)> walkSec;
  std::function<void(const StmtPtr&)> walkStmt;

  walkExpr = [&](const ExprPtr& e) {
    if (e == nullptr || !seen.insert(e.get()).second) return;
    if (e->kind == ExprKind::ScalarRef) refs_[e.get()] = intern(e->name);
    walkExpr(e->lhs);
    walkExpr(e->rhs);
    walkSec(e->section);
  };

  walkSec = [&](const SectionExprPtr& se) {
    if (se == nullptr || !seen.insert(se.get()).second) return;
    for (const auto& t : se->dims) {
      walkExpr(t.lb);
      walkExpr(t.ub);
      walkExpr(t.stride);
    }
    walkExpr(se->pid);
    walkSec(se->a);
    walkSec(se->b);
  };

  walkStmt = [&](const StmtPtr& s) {
    if (s == nullptr || !seen.insert(s.get()).second) return;
    if (s->kind == StmtKind::ScalarAssign || s->kind == StmtKind::For)
      binds_[s.get()] = intern(s->name);
    for (const auto& c : s->stmts) walkStmt(c);
    walkExpr(s->value);
    walkSec(s->lhs);
    walkExpr(s->rhs);
    walkExpr(s->lb);
    walkExpr(s->ub);
    walkExpr(s->step);
    walkStmt(s->body);
    walkExpr(s->rule);
    walkSec(s->sec2);
    walkExpr(s->bindHint);
    for (const auto& e : s->dest.pids) walkExpr(e);
    walkSec(s->dest.section);
    for (const auto& [sym, se] : s->args) walkSec(se);
  };

  walkStmt(prog.body);
}

}  // namespace xdp::il
