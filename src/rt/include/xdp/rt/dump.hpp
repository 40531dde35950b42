// Human-readable renderings of the runtime structures, mirroring the
// paper's figures: dumpSymbolTable produces the Figure-2 table for one
// processor; dumpOwnerGrid / dumpSegmentGrid produce the Figure-3 pictures
// (element-by-element owner map and one processor's local segmentation)
// for rank-2 arrays.
#pragma once

#include <string>
#include <vector>

#include "xdp/net/fabric.hpp"
#include "xdp/rt/proc_table.hpp"

namespace xdp::rt {

/// Figure 2: one row per symbol — index, name, rank, global shape,
/// partitioning, segment shape, #segments — plus the run-time segment
/// descriptor array (status + bounds per segment).
std::string dumpSymbolTable(const ProcTable& table);

/// Figure 3 (left): for a rank-2 declaration, a grid of owner pids.
std::string dumpOwnerGrid(const SymbolDecl& decl);

/// Figure 3 (right): the segments of `pid`'s local partition, one letter
/// per segment, '.' for elements owned by other processors.
std::string dumpSegmentGrid(const SymbolDecl& decl, int pid);

/// Everything the runtime learned when it diagnosed a hang. Gathered when
/// the scheduler finds no processor runnable, rendered by dumpDeadlock,
/// and carried (as the rendered report) inside the DeadlockError that
/// fails the blocked waits.
struct DeadlockDiagnostics {
  enum class ProcStatus { Finished, BlockedAwait, AtBarrier };
  struct ProcState {
    int pid = -1;
    ProcStatus status = ProcStatus::Finished;
    int sym = -1;            ///< awaited symbol (BlockedAwait only)
    std::string symName;     ///< its declared name
    std::string section;     ///< awaited section, rendered
  };
  std::vector<ProcState> procs;
  net::FabricSnapshot fabric;
  std::vector<std::string> symbolNames;   ///< by symtab index
  std::vector<std::string> symbolTables;  ///< dumpSymbolTable of blocked pids
};

/// One-screen, line-oriented deadlock report: blocked processors and what
/// they await, unmatched receive names, undelivered message names, and the
/// owning-section state of every blocked processor's symbol table.
std::string dumpDeadlock(const DeadlockDiagnostics& d);

}  // namespace xdp::rt
