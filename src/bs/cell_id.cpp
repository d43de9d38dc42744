#include "bs/cell_id.h"

namespace cellrel {

void append_cell(RowWriter& row, const CellIdentity& id) {
  if (const auto* g = std::get_if<CellGlobalId>(&id)) {
    row.padded(g->mcc, 3).put('-').padded(g->mnc, 2).put('-');
    row.integer(g->lac).put('-').integer(g->cid);
    return;
  }
  const auto& c = std::get<CdmaCellId>(id);
  row.text("cdma:").integer(c.sid).put('-').integer(c.nid).put('-').integer(c.bid);
}

std::string to_string(const CellIdentity& id) {
  char buf[40];
  RowWriter row(buf);
  append_cell(row, id);
  return std::string(row.view());
}

std::uint64_t cell_key(const CellIdentity& id) {
  if (const auto* g = std::get_if<CellGlobalId>(&id)) {
    return (std::uint64_t{g->mcc} << 48) ^ (std::uint64_t{g->mnc} << 40) ^
           (std::uint64_t{g->lac} << 28) ^ g->cid;
  }
  const auto& c = std::get<CdmaCellId>(id);
  return 0x8000000000000000ULL ^ (std::uint64_t{c.sid} << 44) ^
         (std::uint64_t{c.nid} << 28) ^ c.bid;
}

}  // namespace cellrel
