// Messages and names.
//
// "The name is used as a tag to associate a send with a corresponding
// receive" (paper section 2.6, footnote 2). A Name is a symbol id plus the
// canonical section; sends and receives match on exact name equality, and
// it is the compiler's responsibility that the sections of matched
// operations are identical — mismatches are unpredictable in XDP, and our
// debug-checks mode turns them into hard errors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <vector>

#include "xdp/sections/section.hpp"

namespace xdp::net {

/// What a transfer moves (paper Figure 1):
///   Data              ->  / <-     value only
///   Ownership         =>  / <=     ownership only, no value
///   OwnershipAndValue -=> / <=-    both
enum class TransferKind : std::uint8_t { Data, Ownership, OwnershipAndValue };

const char* transferKindName(TransferKind k);

/// The tag associating a send with its receive. A name is normally one
/// section; the aggregated-transfer extension (paper section 3.2: "allow
/// ... the left-hand side of XDP send and receive statements to be a set
/// of sections") adds further sections in `rest`, all packed into one
/// message in order.
struct Name {
  int symbol = -1;                ///< run-time symbol table index
  sec::Section section;           ///< canonical (first) section
  std::vector<sec::Section> rest; ///< additional sections, in payload order

  friend bool operator==(const Name& a, const Name& b) {
    return a.symbol == b.symbol && a.section == b.section &&
           a.rest == b.rest;
  }
};

std::ostream& operator<<(std::ostream& os, const Name& n);

/// The element bytes a message carries. Up to kInline bytes (two
/// elements: every point transfer) live in the message itself, so a
/// point message allocates nothing; larger payloads go to the heap.
class Payload {
 public:
  static constexpr std::size_t kInline = 16;

  Payload() = default;
  /// `n` zero bytes.
  explicit Payload(std::size_t n) : size_(n) {
    if (n > kInline) heap_ = std::make_unique<std::byte[]>(n);
  }
  Payload(const std::byte* p, std::size_t n) : Payload(n) {
    if (n > kInline)
      std::memcpy(heap_.get(), p, n);
    else if (n != 0)
      std::memcpy(inline_, p, n);
  }
  Payload(const std::vector<std::byte>& v) : Payload(v.data(), v.size()) {}
  Payload(const Payload& o) : Payload(o.data(), o.size_) {}
  Payload(Payload&& o) noexcept
      : size_(o.size_), heap_(std::move(o.heap_)) {
    std::memcpy(inline_, o.inline_, kInline);
    o.size_ = 0;
  }
  Payload& operator=(Payload o) noexcept {
    size_ = o.size_;
    heap_ = std::move(o.heap_);
    std::memcpy(inline_, o.inline_, kInline);
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::byte* data() { return heap_ ? heap_.get() : inline_; }
  const std::byte* data() const { return heap_ ? heap_.get() : inline_; }
  std::byte operator[](std::size_t i) const { return data()[i]; }
  std::vector<std::byte> toVector() const {
    return std::vector<std::byte>(data(), data() + size_);
  }

 private:
  std::size_t size_ = 0;
  std::unique_ptr<std::byte[]> heap_;  ///< set iff size_ > kInline
  std::byte inline_[kInline] = {};
};

struct Message {
  Name name;
  TransferKind kind = TransferKind::Data;
  int src = -1;
  Payload payload;                 ///< element values in Fortran order
  double arrival = 0.0;            ///< virtual time the message lands
  /// Nonzero only on fault-injected duplicated messages: original and copy
  /// carry the same id, and the fabric completes at most one of the pair
  /// (exactly-once delivery over an at-least-once transport).
  std::uint64_t dupId = 0;
};

}  // namespace xdp::net
