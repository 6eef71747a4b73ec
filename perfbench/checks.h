#ifndef MIDAS_PERFBENCH_CHECKS_H_
#define MIDAS_PERFBENCH_CHECKS_H_

// The benchmark's own checks of the program's results. They recompute what
// a result must satisfy from the corpus, the KB file and the silver file
// with plain containers (sorted vectors and hash sets), sharing no code
// with the detector, the framework or the profit context.

#include <string>
#include <unordered_set>
#include <vector>

#include "midas/core/types.h"
#include "midas/rdf/dictionary.h"
#include "midas/rdf/triple.h"
#include "midas/util/status.h"
#include "midas/web/web_source.h"

namespace midas {
namespace perfbench {

using TripleSet = std::unordered_set<rdf::Triple, rdf::TripleHash>;

// Def. 9 coefficients the benchmark runs the detector with.
struct Costs {
  double f_p = 10.0;
  double f_c = 0.001;
  double f_d = 0.01;
  double f_v = 0.1;
};

// Reads a facts TSV (subject, predicate, object a line) into `out`, with
// term ids looked up in `dict`. Triples with a term the dictionary lacks
// cannot match any corpus fact and are skipped.
Status LoadTripleSet(const std::string& path, const rdf::Dictionary& dict,
                     TripleSet* out);

// Reads silver.tsv (slice number, subject, predicate, object) into one
// sorted fact list per slice.
Status LoadSilver(const std::string& path, const rdf::Dictionary& dict,
                  std::vector<std::vector<rdf::Triple>>* out);

// Checks every slice against the corpus and the KB:
//   - each fact lies in the subtree of the slice's source URL;
//   - its facts are exactly the subtree facts of its entities (Def. 5);
//   - every entity carries every one of the slice's properties;
//   - num_facts / num_new_facts match counts against `kb`;
//   - profit equals Def. 9 recomputed from those counts.
// Returns an empty string when all hold, else the first violation.
std::string CheckSlices(const web::Corpus& corpus, const TripleSet& kb,
                        const Costs& costs,
                        const std::vector<core::DiscoveredSlice>& slices);

// Empty iff the two slice lists are identical field by field (profits
// compared bit for bit), else where they first differ.
std::string CompareSlices(const std::vector<core::DiscoveredSlice>& want,
                          const std::vector<core::DiscoveredSlice>& got);

// F-measure of `found` against the silver slices: a found slice and a
// silver slice match when the Jaccard similarity of their fact sets is at
// least `jaccard`.
double SliceF1(const std::vector<core::DiscoveredSlice>& found,
               const std::vector<std::vector<rdf::Triple>>& silver,
               double jaccard);

}  // namespace perfbench
}  // namespace midas

#endif  // MIDAS_PERFBENCH_CHECKS_H_
