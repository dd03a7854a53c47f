// pathest: construction of ordering methods by name.

#ifndef PATHEST_ORDERING_FACTORY_H_
#define PATHEST_ORDERING_FACTORY_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "ordering/ordering.h"
#include "path/selectivity.h"
#include "util/status.h"

namespace pathest {

/// \brief The five ordering methods of the paper's experimental study, in
/// presentation order: num-alph, num-card, lex-alph, lex-card, sum-based.
const std::vector<std::string>& PaperOrderingNames();

/// \brief The one servability gate for an ordering shape; never aborts.
/// Refuses (InvalidArgument) an empty label set, k outside
/// [1, kMaxPathLength], a domain |L_k| that overflows u64, and a
/// sum-family name ("sum-based", "sum-card", "sum-alph") whose rank
/// multisets fit no 64-bit key (ChooseSumKeyScheme in
/// ordering/sum_based.h). MakeOrderingFromStats and every catalog reader
/// call it before anything is built from (|L|, k).
Status CheckOrderingShape(const std::string& name, uint64_t num_labels,
                          uint64_t k);

/// \brief Builds an ordering method by name over `graph`'s label set.
///
/// Accepted names: "num-alph", "num-card", "lex-alph", "lex-card",
/// "sum-based" ("sum-card" is an alias), "sum-alph", "gray-alph",
/// "gray-card", and the "random" baseline.
/// Cardinality-ranked methods use the graph's label cardinalities f(l).
Result<OrderingPtr> MakeOrdering(const std::string& name, const Graph& graph,
                                 size_t k);

/// \brief Builds a closed-form ordering from label statistics alone (no
/// graph needed) — the deserialization path. Same names as MakeOrdering.
/// Shapes CheckOrderingShape refuses are an InvalidArgument.
Result<OrderingPtr> MakeOrderingFromStats(
    const std::string& name, const LabelDictionary& labels,
    const std::vector<uint64_t>& label_cardinalities, size_t k);

/// \brief Builds an ordering that needs exact path selectivities:
/// all MakeOrdering names, plus "ideal" and "sum-L2".
Result<OrderingPtr> MakeOrderingWithSelectivities(
    const std::string& name, const Graph& graph, size_t k,
    const SelectivityMap& selectivities);

}  // namespace pathest

#endif  // PATHEST_ORDERING_FACTORY_H_
