// Named query presets: the §3 figure/table renderers expressed as
// QuerySpecs, so `cellrel_query --preset fig5` answers the same question as
// the fig5 bench through the one shared engine.

#ifndef CELLREL_QUERY_PRESETS_H
#define CELLREL_QUERY_PRESETS_H

#include <optional>
#include <span>
#include <string_view>

#include "query/spec.h"

namespace cellrel::query {

struct PresetInfo {
  std::string_view name;
  std::string_view description;
  /// The preset's question in canonical spec text (parse_query_spec input
  /// and to_string output alike).
  std::string_view spec;
};

/// All presets, in listing order.
std::span<const PresetInfo> preset_table();

/// The spec behind a preset name (its row's spec text, parsed, named after
/// the preset), or nullopt for an unknown name.
std::optional<QuerySpec> find_preset(std::string_view name);

/// Human-readable listing: one "name  description  (spec)" line per preset.
std::string render_preset_list();

}  // namespace cellrel::query

#endif  // CELLREL_QUERY_PRESETS_H
