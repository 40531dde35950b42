#include "xdp/net/wire.hpp"

namespace xdp::net::wire {

void putSection(ckpt::Writer& w, const sec::Section& s) {
  w.u8(static_cast<std::uint8_t>(s.rank()));
  for (int d = 0; d < s.rank(); ++d) {
    const sec::Triplet& t = s.dim(d);
    w.i64(t.lb());
    w.i64(t.ub());
    w.i64(t.stride());
  }
}

sec::Section getSection(ckpt::Reader& r) {
  const int rank = static_cast<int>(r.u8());
  if (rank < 0 || rank > sec::kMaxRank)
    throw ckpt::CkptError("section rank out of range in image");
  std::vector<sec::Triplet> dims;
  dims.reserve(static_cast<std::size_t>(rank));
  for (int d = 0; d < rank; ++d) {
    const sec::Index lb = r.i64();
    const sec::Index ub = r.i64();
    const sec::Index stride = r.i64();
    if (stride < 1) throw ckpt::CkptError("section stride out of range in image");
    dims.emplace_back(lb, ub, stride);
  }
  return sec::Section(dims);
}

void putName(ckpt::Writer& w, const Name& n) {
  w.i64(n.symbol);
  putSection(w, n.section);
  w.u32(static_cast<std::uint32_t>(n.rest.size()));
  for (const sec::Section& s : n.rest) putSection(w, s);
}

Name getName(ckpt::Reader& r) {
  Name n;
  n.symbol = static_cast<int>(r.i64());
  n.section = getSection(r);
  const std::uint32_t rest = r.u32();
  n.rest.reserve(rest);
  for (std::uint32_t k = 0; k < rest; ++k) n.rest.push_back(getSection(r));
  return n;
}

void putMessage(ckpt::Writer& w, const Message& m) {
  putName(w, m.name);
  w.u8(static_cast<std::uint8_t>(m.kind));
  w.i64(m.src);
  w.bytes(m.payload.data(), m.payload.size());
  w.f64(m.arrival);
  w.u64(m.dupId);
}

Message getMessage(ckpt::Reader& r) {
  Message m;
  m.name = getName(r);
  m.kind = static_cast<TransferKind>(r.u8());
  m.src = static_cast<int>(r.i64());
  m.payload = r.bytes();
  m.arrival = r.f64();
  m.dupId = r.u64();
  return m;
}

}  // namespace xdp::net::wire
