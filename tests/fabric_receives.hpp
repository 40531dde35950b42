// Per-receive closures for tests that drive a bare net::Fabric.
//
// The fabric completes every receive through the one routine its owner
// installs (Fabric::setCompletion; a Runtime scatters into its tables).
// Tests that exercise the fabric alone want a closure per receive
// instead, so ClosureFabric installs a routine that runs the closure a
// receive was posted with, found through the RecvDesc's dstSym.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <utility>

#include "xdp/net/fabric.hpp"

namespace xdp::net {

class ClosureFabric : public Fabric {
 public:
  using OnMessage = std::function<void(const Message&)>;

  explicit ClosureFabric(int nprocs, CostModel model = {})
      : Fabric(nprocs, model) {
    setCompletion([this](int, const RecvDesc& d, const Message& m) {
      fns_[static_cast<std::size_t>(d.dstSym)](m);
    });
  }

  using Fabric::postReceive;
  ReceiveId postReceive(int pid, const Name& name, TransferKind kind,
                        OnMessage fn) {
    fns_.push_back(std::move(fn));
    return Fabric::postReceive(
        pid, name, kind,
        RecvDesc{static_cast<int>(fns_.size() - 1), name.section, {}, false});
  }

 private:
  std::deque<OnMessage> fns_;  ///< by RecvDesc::dstSym; never moves
};

}  // namespace xdp::net
