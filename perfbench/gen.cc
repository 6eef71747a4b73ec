// Input generator of the benchmark. Writes one corpus directory from a seed:
//
//   corpus.midascol  the extraction dump, columnar, source-grouped (so it
//                    carries the source-range index by-reference dist needs)
//   kb.tsv           the knowledge base facts (subject, predicate, object)
//   silver.tsv       the planted silver slices: slice number + one fact a row
//   deltas.tsv       the serve loop's ingest script: cycle, url, subject,
//                    predicate, object, confidence
//
// Usage: perfbench_gen --corpus closedie|openie --seed N --out DIR
//
// It runs as its own process before the timed one, so neither its time nor
// its memory shows in any metric.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "corpora.h"
#include "midas/extract/columnar_io.h"
#include "midas/rdf/ntriples.h"
#include "midas/util/flags.h"
#include "midas/util/random.h"

namespace midas {
namespace perfbench {
namespace {

std::string DomainOf(const std::string& url) {
  const size_t scheme = url.find("://");
  const size_t host = scheme == std::string::npos ? 0 : scheme + 3;
  return url.substr(0, url.find('/', host));
}

Status WriteSilver(const std::string& path, const rdf::Dictionary& dict,
                   const synth::SilverStandard& silver) {
  std::ofstream out(path);
  for (size_t i = 0; i < silver.slices.size(); ++i) {
    for (const rdf::Triple& t : silver.slices[i].facts) {
      out << i << '\t' << dict.Term(t.subject) << '\t'
          << dict.Term(t.predicate) << '\t' << dict.Term(t.object) << '\n';
    }
  }
  out.close();
  return out ? Status::OK() : Status::IoError("cannot write " + path);
}

// Each cycle targets one source drawn uniformly from every source outside
// the corpus's largest domain: a rediscover then re-detects that source's
// few ancestor shards, and no seed's draws can land a share of cycles on
// the one giant domain whose re-detection would dominate the tail.
Status WriteDeltas(const std::string& path, uint64_t seed,
                   const web::Corpus& corpus) {
  const rdf::Dictionary& dict = corpus.dict();
  const auto& sources = corpus.sources();
  std::unordered_map<std::string, size_t> domain_facts;
  for (const auto& src : sources) {
    domain_facts[DomainOf(src.url)] += src.facts.size();
  }
  std::string largest;
  size_t largest_facts = 0;
  for (const auto& [domain, facts] : domain_facts) {
    if (facts > largest_facts || (facts == largest_facts && domain < largest)) {
      largest = domain;
      largest_facts = facts;
    }
  }
  std::vector<size_t> candidates;
  for (size_t i = 0; i < sources.size(); ++i) {
    if (!sources[i].facts.empty() && DomainOf(sources[i].url) != largest) {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) return Status::Internal("no source to ingest into");

  Rng rng(seed ^ 0x5EEDDE17A5ull);
  std::ofstream out(path);
  for (int cycle = 0; cycle < kDeltaCycles; ++cycle) {
    const auto& src = sources[candidates[rng.Uniform(candidates.size())]];
    const auto pick = [&]() -> const rdf::Triple& {
      return src.facts[rng.Uniform(src.facts.size())];
    };
    // Novel: an existing subject and predicate with a fresh object term, so
    // ingest interns exactly one new term per fact.
    for (int k = 0; k < kNovelPerDelta; ++k) {
      const rdf::Triple& s = pick();
      const rdf::Triple& p = pick();
      out << cycle << '\t' << src.url << '\t' << dict.Term(s.subject) << '\t'
          << dict.Term(p.predicate) << "\tpb_value_" << cycle << '_' << k
          << "\t0.9\n";
    }
    const rdf::Triple& dup = pick();
    out << cycle << '\t' << src.url << '\t' << dict.Term(dup.subject) << '\t'
        << dict.Term(dup.predicate) << '\t' << dict.Term(dup.object)
        << "\t0.9\n";
    out << cycle << '\t' << src.url << "\tpb_low_subject_" << cycle
        << "\tpb_low_predicate\tpb_low_value\t0.5\n";
  }
  out.close();
  return out ? Status::OK() : Status::IoError("cannot write " + path);
}

// The NELL-like generator draws its one giant domain's section count from
// {1, 2, 3, 4} x skew_factor, the single draw that moves a corpus's largest
// shard by 4x. The ClosedIE corpus therefore uses, for run seed `seed`, the
// first generator seed of a sequence derived from it whose giant domain
// draws 2 x skew_factor sections; everything else still varies with the
// seed. The draw comes first after the ontology, so a one-domain probe
// corpus shows it.
uint64_t GeneratorSeed(const synth::CorpusGenParams& params, uint64_t seed) {
  if (!params.skewed_large_domain) return seed;
  Rng sequence(seed);
  uint64_t candidate = seed;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    synth::CorpusGenParams probe = params;
    probe.num_domains = 1;
    probe.seed = candidate;
    const synth::GeneratedCorpus data = synth::GenerateCorpus(probe);
    std::unordered_map<std::string, int> sections;
    for (const auto& src : data.corpus->sources()) {
      sections[src.url.substr(0, src.url.rfind('/'))] = 1;
    }
    const size_t n = sections.size();
    if (n > params.skew_factor && n <= 2 * params.skew_factor) return candidate;
    candidate = sequence.Next();
  }
  return seed;
}

Status Run(const FlagParser& flags) {
  const std::string corpus_name = flags.GetString("corpus");
  const std::string dir = flags.GetString("out");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  synth::CorpusGenParams params;
  if (!CorpusParams(corpus_name, seed, &params)) {
    return Status::InvalidArgument("unknown --corpus: " + corpus_name);
  }
  if (dir.empty()) return Status::InvalidArgument("--out is required");

  params.seed = GeneratorSeed(params, seed);
  synth::GeneratedCorpus data = synth::GenerateCorpus(params);
  extract::ExtractionDump dump;
  dump.dict = data.dict;
  for (const auto& src : data.corpus->sources()) {
    for (const auto& t : src.facts) {
      dump.facts.push_back(extract::ExtractedFact{src.url, t, 0.95});
    }
  }
  MIDAS_RETURN_IF_ERROR(
      extract::SaveColumnarDump(dir + "/" + kDumpFile, dump));
  MIDAS_RETURN_IF_ERROR(rdf::SaveTsvFacts(dir + "/" + kKbFile, *data.dict,
                                          data.kb->store().triples()));
  MIDAS_RETURN_IF_ERROR(
      WriteSilver(dir + "/" + kSilverFile, *data.dict, data.silver));
  MIDAS_RETURN_IF_ERROR(
      WriteDeltas(dir + "/" + kDeltasFile, seed, *data.corpus));
  std::cout << "generated " << corpus_name << " seed " << seed
            << " (generator seed " << params.seed << "): "
            << dump.facts.size() << " facts over "
            << data.corpus->NumSources() << " sources, " << data.kb->size()
            << " KB facts, " << data.silver.size() << " silver slices\n";
  return Status::OK();
}

}  // namespace
}  // namespace perfbench
}  // namespace midas

int main(int argc, char** argv) {
  midas::FlagParser flags;
  flags.AddString("corpus", "closedie", "closedie|openie");
  flags.AddInt64("seed", 1, "generator seed");
  flags.AddString("out", "", "output directory (must exist)");
  midas::Status status = flags.Parse(argc, argv);
  if (status.ok()) status = midas::perfbench::Run(flags);
  if (!status.ok()) {
    std::cerr << "perfbench_gen: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}
