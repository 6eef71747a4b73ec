#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <unordered_map>

namespace midas {
namespace perfbench {
namespace {

// Splits a TSV line into exactly `n` fields; false on another count or on
// an escaped field (the generator writes none).
bool SplitFields(const std::string& line, size_t n,
                 std::vector<std::string>* fields) {
  fields->clear();
  size_t start = 0;
  while (true) {
    const size_t tab = line.find('\t', start);
    fields->push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) break;
    start = tab + 1;
  }
  if (fields->size() != n) return false;
  for (const auto& f : *fields) {
    if (f.find('\\') != std::string::npos) return false;
  }
  return true;
}

bool LookupTriple(const rdf::Dictionary& dict, const std::string& s,
                  const std::string& p, const std::string& o,
                  rdf::Triple* out) {
  const auto si = dict.Lookup(s);
  const auto pi = dict.Lookup(p);
  const auto oi = dict.Lookup(o);
  if (!si || !pi || !oi) return false;
  *out = rdf::Triple(*si, *pi, *oi);
  return true;
}

// True iff `url` is `root` or lies below it in the URL tree.
bool InSubtree(const std::string& url, const std::string& root) {
  return url.size() >= root.size() &&
         url.compare(0, root.size(), root) == 0 &&
         (url.size() == root.size() || url[root.size()] == '/');
}

std::string Describe(const core::DiscoveredSlice& s, size_t index) {
  return "slice " + std::to_string(index) + " at " + s.source_url;
}

}  // namespace

Status LoadTripleSet(const std::string& path, const rdf::Dictionary& dict,
                     TripleSet* out) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::string line;
  std::vector<std::string> f;
  size_t row = 0;
  while (std::getline(in, line)) {
    ++row;
    if (line.empty()) continue;
    if (!SplitFields(line, 3, &f)) {
      return Status::Corruption(path + " row " + std::to_string(row));
    }
    rdf::Triple t;
    if (LookupTriple(dict, f[0], f[1], f[2], &t)) out->insert(t);
  }
  return Status::OK();
}

Status LoadSilver(const std::string& path, const rdf::Dictionary& dict,
                  std::vector<std::vector<rdf::Triple>>* out) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::map<size_t, std::vector<rdf::Triple>> slices;
  std::string line;
  std::vector<std::string> f;
  size_t row = 0;
  while (std::getline(in, line)) {
    ++row;
    if (line.empty()) continue;
    rdf::Triple t;
    if (!SplitFields(line, 4, &f) ||
        !LookupTriple(dict, f[1], f[2], f[3], &t)) {
      // Silver facts are extraction-space facts: all of them are in the
      // corpus, so every term must resolve.
      return Status::Corruption(path + " row " + std::to_string(row));
    }
    slices[std::stoul(f[0])].push_back(t);
  }
  out->clear();
  for (auto& [index, facts] : slices) {
    std::sort(facts.begin(), facts.end());
    facts.erase(std::unique(facts.begin(), facts.end()), facts.end());
    out->push_back(std::move(facts));
  }
  return Status::OK();
}

std::string CheckSlices(const web::Corpus& corpus, const TripleSet& kb,
                        const Costs& costs,
                        const std::vector<core::DiscoveredSlice>& slices) {
  const auto& sources = corpus.sources();
  std::vector<size_t> by_url(sources.size());
  std::iota(by_url.begin(), by_url.end(), size_t{0});
  std::sort(by_url.begin(), by_url.end(), [&](size_t a, size_t b) {
    return sources[a].url < sources[b].url;
  });

  std::map<std::string, std::vector<size_t>> slices_by_url;
  for (size_t i = 0; i < slices.size(); ++i) {
    slices_by_url[slices[i].source_url].push_back(i);
  }
  for (const auto& [root, members] : slices_by_url) {
    // T_U: the distinct facts of every source in the subtree of `root`.
    TripleSet subtree;
    auto it = std::lower_bound(
        by_url.begin(), by_url.end(), root,
        [&](size_t i, const std::string& u) { return sources[i].url < u; });
    for (; it != by_url.end() &&
           sources[*it].url.compare(0, root.size(), root) == 0;
         ++it) {
      if (!InSubtree(sources[*it].url, root)) continue;
      subtree.insert(sources[*it].facts.begin(), sources[*it].facts.end());
    }
    if (subtree.empty()) return "no corpus source under " + root;

    for (size_t index : members) {
      const core::DiscoveredSlice& s = slices[index];
      if (s.entities.empty() || s.properties.empty()) {
        return Describe(s, index) + " has no entities or no properties";
      }
      std::unordered_set<rdf::TermId> entities(s.entities.begin(),
                                               s.entities.end());
      if (entities.size() != s.entities.size()) {
        return Describe(s, index) + " lists an entity twice";
      }
      for (const rdf::Triple& t : s.facts) {
        if (subtree.count(t) == 0) {
          return Describe(s, index) + " has a fact outside its subtree";
        }
      }
      std::vector<rdf::Triple> want;
      for (const rdf::Triple& t : subtree) {
        if (entities.count(t.subject) != 0) want.push_back(t);
      }
      std::sort(want.begin(), want.end());
      std::vector<rdf::Triple> got = s.facts;
      std::sort(got.begin(), got.end());
      if (got != want) {
        return Describe(s, index) + " facts are not its entities' facts (" +
               std::to_string(got.size()) + " vs " +
               std::to_string(want.size()) + ")";
      }
      for (rdf::TermId e : s.entities) {
        for (const core::PropertyPair& p : s.properties) {
          if (subtree.count(rdf::Triple(e, p.predicate, p.value)) == 0) {
            return Describe(s, index) + " has an entity lacking a property";
          }
        }
      }
      size_t fresh = 0;
      for (const rdf::Triple& t : want) fresh += kb.count(t) == 0 ? 1 : 0;
      if (s.num_facts != want.size() || s.num_new_facts != fresh) {
        return Describe(s, index) + " counts " +
               std::to_string(s.num_facts) + "/" +
               std::to_string(s.num_new_facts) + ", recomputed " +
               std::to_string(want.size()) + "/" + std::to_string(fresh);
      }
      const double n = static_cast<double>(fresh);
      const double profit = n - costs.f_p -
                            costs.f_c * static_cast<double>(subtree.size()) -
                            costs.f_d * static_cast<double>(want.size()) -
                            costs.f_v * n;
      if (std::fabs(profit - s.profit) > 1e-9 * std::max(1.0, std::fabs(profit))) {
        char buf[128];
        std::snprintf(buf, sizeof buf, " profit %.17g, recomputed %.17g",
                      s.profit, profit);
        return Describe(s, index) + buf;
      }
    }
  }
  return "";
}

std::string CompareSlices(const std::vector<core::DiscoveredSlice>& want,
                          const std::vector<core::DiscoveredSlice>& got) {
  if (want.size() != got.size()) {
    return std::to_string(got.size()) + " slices, expected " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    const auto& a = want[i];
    const auto& b = got[i];
    if (a.source_url != b.source_url || !(a.properties == b.properties) ||
        a.entities != b.entities || a.facts != b.facts ||
        a.num_facts != b.num_facts || a.num_new_facts != b.num_new_facts ||
        std::memcmp(&a.profit, &b.profit, sizeof(double)) != 0) {
      return "slice " + std::to_string(i) + " differs (" + a.source_url +
             " vs " + b.source_url + ")";
    }
  }
  return "";
}

double SliceF1(const std::vector<core::DiscoveredSlice>& found,
               const std::vector<std::vector<rdf::Triple>>& silver,
               double jaccard) {
  if (found.empty() || silver.empty()) return 0.0;
  std::unordered_map<rdf::Triple, std::vector<size_t>, rdf::TripleHash> owner;
  for (size_t j = 0; j < silver.size(); ++j) {
    for (const rdf::Triple& t : silver[j]) owner[t].push_back(j);
  }
  std::vector<char> silver_matched(silver.size(), 0);
  size_t found_matched = 0;
  for (const auto& s : found) {
    std::vector<rdf::Triple> facts = s.facts;
    std::sort(facts.begin(), facts.end());
    facts.erase(std::unique(facts.begin(), facts.end()), facts.end());
    std::unordered_map<size_t, size_t> shared;
    for (const rdf::Triple& t : facts) {
      auto it = owner.find(t);
      if (it == owner.end()) continue;
      for (size_t j : it->second) shared[j]++;
    }
    bool matched = false;
    for (const auto& [j, common] : shared) {
      const double uni =
          static_cast<double>(facts.size() + silver[j].size() - common);
      if (static_cast<double>(common) / uni >= jaccard) {
        silver_matched[j] = 1;
        matched = true;
      }
    }
    found_matched += matched ? 1 : 0;
  }
  const double precision =
      static_cast<double>(found_matched) / static_cast<double>(found.size());
  const double recall =
      static_cast<double>(std::count(silver_matched.begin(),
                                     silver_matched.end(), 1)) /
      static_cast<double>(silver.size());
  return precision + recall == 0.0
             ? 0.0
             : 2.0 * precision * recall / (precision + recall);
}

}  // namespace perfbench
}  // namespace midas
