// Cell identity types.
//
// The study records each failure's serving base station as MCC + MNC + LAC +
// CID; for CDMA base stations, SID + NID + BID is recorded instead (§2.2,
// footnote 3). We model both forms with a tagged union.

#ifndef CELLREL_BS_CELL_ID_H
#define CELLREL_BS_CELL_ID_H

#include <cstdint>
#include <functional>
#include <string>
#include <variant>

#include "common/row_writer.h"

namespace cellrel {

/// GSM/UMTS/LTE/NR global cell identity.
struct CellGlobalId {
  std::uint16_t mcc = 460;  // China
  std::uint16_t mnc = 0;
  std::uint32_t lac = 0;  // location / tracking area code
  std::uint32_t cid = 0;

  friend bool operator==(const CellGlobalId&, const CellGlobalId&) = default;
};

/// CDMA cell identity (SID/NID/BID).
struct CdmaCellId {
  std::uint16_t sid = 0;
  std::uint16_t nid = 0;
  std::uint32_t bid = 0;

  friend bool operator==(const CdmaCellId&, const CdmaCellId&) = default;
};

/// Either identity form.
using CellIdentity = std::variant<CellGlobalId, CdmaCellId>;

/// "MCC-MNC-LAC-CID" with MCC zero-padded to 3 digits and MNC to 2
/// ("460-01-4660-42"), or "cdma:SID-NID-BID".
void append_cell(RowWriter& row, const CellIdentity& id);
std::string to_string(const CellIdentity& id);

/// Stable 64-bit key for hashing/grouping.
std::uint64_t cell_key(const CellIdentity& id);

}  // namespace cellrel

#endif  // CELLREL_BS_CELL_ID_H
