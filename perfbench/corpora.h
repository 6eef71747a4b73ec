#ifndef MIDAS_PERFBENCH_CORPORA_H_
#define MIDAS_PERFBENCH_CORPORA_H_

// The two generated corpora the benchmark's workloads run on, shared by the
// input generator (gen.cc) and the runner (bench.cc).

#include <string>

#include "midas/synth/corpus_generator.h"

namespace midas {
namespace perfbench {

// Generator scales. They size each corpus so that one round of the timed
// batch operations (two set-ups, a 1-thread and a 2-thread discovery) takes
// about 1.5 s, which lets a run take medians over a dozen rounds.
inline constexpr double kClosedIeScale = 2.0;
inline constexpr double kOpenIeScale = 1.0;

// Confidence threshold of every load and of ingested deltas; the generated
// dump stores confidence 0.95 and the deltas 0.9 or 0.5.
inline constexpr double kThreshold = 0.7;

// Files of one generated corpus directory.
inline constexpr const char* kDumpFile = "corpus.midascol";
inline constexpr const char* kKbFile = "kb.tsv";
inline constexpr const char* kSilverFile = "silver.tsv";
inline constexpr const char* kDeltasFile = "deltas.tsv";

// Per ingest cycle: kNovelPerDelta facts with fresh object terms, one
// duplicate of a fact the source already has, one fact below the threshold.
inline constexpr int kNovelPerDelta = 3;
inline constexpr int kDeltaCycles = 4000;

// "closedie" -> NELL-like ClosedIE, "openie" -> ReVerb-like OpenIE.
inline bool CorpusParams(const std::string& corpus, uint64_t seed,
                         synth::CorpusGenParams* out) {
  if (corpus == "closedie") {
    *out = synth::NellLikeParams(kClosedIeScale);
  } else if (corpus == "openie") {
    *out = synth::ReVerbLikeParams(kOpenIeScale);
  } else {
    return false;
  }
  out->seed = seed;
  return true;
}

}  // namespace perfbench
}  // namespace midas

#endif  // MIDAS_PERFBENCH_CORPORA_H_
