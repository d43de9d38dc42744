// One-shot markdown report over a backend dataset: the whole §3 analysis
// (general statistics, phone landscape, ISP/BS landscape) in a single
// document, as the study's backend would publish it.

#ifndef CELLREL_ANALYSIS_FULL_REPORT_H
#define CELLREL_ANALYSIS_FULL_REPORT_H

#include <string>

#include "analysis/aggregate.h"

namespace cellrel {

/// Renders the complete markdown report from an Aggregator. Every statistic
/// is pulled through the aggregator — never from a raw dataset — so the
/// report is byte-identical whichever adapter fed the fold (see aggregate.h's
/// bit-identity contract). Callers holding a TraceDataset wrap it in an
/// `Aggregator` first.
std::string render_full_report(const Aggregator& agg);

}  // namespace cellrel

#endif  // CELLREL_ANALYSIS_FULL_REPORT_H
