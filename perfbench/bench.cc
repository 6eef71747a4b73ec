// Runner of the MIDAS benchmark: one workload on one generated input
// directory for one measuring window. perfbench/run.py builds it, generates
// the inputs in a separate process and calls
//
//   perfbench_run --workload batch_closedie|batch_openie
//                 --data DIR --seed N --seconds S --trace 0|1
//                 [--trace_out FILE] [--fingerprints TEXT]
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// records spans around every public call it makes, reads the program's obs
// counters across them and reports the per-layer metrics (README.md). Its
// last stdout line is the JSON result
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
// The exit code is 0 only when every check held.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "checks.h"
#include "corpora.h"
#include "http_client.h"
#include "midas/core/framework.h"
#include "midas/core/midas_alg.h"
#include "midas/dist/coordinator.h"
#include "midas/dist/worker.h"
#include "midas/extract/columnar_io.h"
#include "midas/obs/metrics.h"
#include "midas/obs/trace.h"
#include "midas/rdf/knowledge_base.h"
#include "midas/rdf/ntriples.h"
#include "midas/serve/discovery_service.h"
#include "midas/serve/http_server.h"
#include "midas/store/columnar.h"
#include "midas/util/flags.h"
#include "midas/util/json.h"
#include "midas/web/url_hierarchy.h"

namespace midas {
namespace perfbench {
namespace {

// Framework threads and dist workers. Threads and processes that run at
// once stay at or below 4, the vCPU count the benchmark is sized for.
constexpr size_t kThreads = 2;
constexpr size_t kWorkers = 2;
// Batch phases repeat whole rounds of every timed operation at least this
// often, and serve phases take at least this many rediscover samples, so
// the printed rediscover p90 has ten samples beyond it.
constexpr int kMinRounds = 3;
constexpr size_t kMinCycles = 100;
// Result-cache hits a serve cycle sends after its rediscover.
constexpr size_t kHits = 5;
// Hard stop of a measuring window, whatever the minimums above ask.
constexpr double kMaxWindowS = 140.0;
constexpr size_t kProbeCycles = 15;
constexpr double kSilverJaccard = 0.95;
const Costs kCosts;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Quantile by linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// ---- Run manifest ----------------------------------------------------

uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  in >> cpu;
  for (uint64_t& x : v) in >> x;
  return cpu == "cpu" ? v[7] : 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// ---- Spans -----------------------------------------------------------

// Spans recorded around the benchmark's calls into the program, kept in
// memory and written as Chrome trace events when the run ends. Recording
// happens on the main thread only.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0, end_s = 0;
    int id = 0, parent = -1, request = 0;
    std::vector<std::pair<std::string, double>> args;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void NextRequest() { ++request_; }

  int Open(const std::string& name) {
    Span s;
    s.name = name;
    s.id = static_cast<int>(spans_.size());
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request_;
    s.start_s = NowS();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }
  void Close(int id) {
    spans_[static_cast<size_t>(id)].end_s = NowS();
    open_.pop_back();
  }
  // Duration of the latest closed span called `name`; 0 if none.
  double LastDuration(const std::string& name) const {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (it->name == name && it->end_s > 0) return it->end_s - it->start_s;
    }
    return 0.0;
  }
  void Arg(int id, const std::string& key, double value) {
    spans_[static_cast<size_t>(id)].args.emplace_back(key, value);
  }

  Status Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f",
                    s.start_s * 1e6, (s.end_s - s.start_s) * 1e6);
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << JsonValue::Escape(s.name)
          << "\"," << buf << ",\"args\":{\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request;
      for (const auto& [k, v] : s.args) {
        out << ",\"" << JsonValue::Escape(k) << "\":" << JsonValue::Number(v).Dump();
      }
      out << "}}";
    }
    out << "\n]}\n";
    out.close();
    return out ? Status::OK() : Status::IoError("cannot write " + path);
  }

 private:
  bool enabled_ = false;
  int request_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; inert while the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name)
      : log_(log != nullptr && log->enabled() ? log : nullptr) {
    if (log_ != nullptr) id_ = log_->Open(name);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void Arg(const std::string& key, double value) {
    if (log_ != nullptr) log_->Arg(id_, key, value);
  }

 private:
  SpanLog* log_;
  int id_ = -1;
};

// Deltas of the program's obs counters and histogram sums across a call.
class ObsDelta {
 public:
  explicit ObsDelta(std::vector<std::string> names) : names_(std::move(names)) {
    for (const auto& n : names_) before_.push_back(Read(n));
  }
  double operator[](const std::string& name) const {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<double>(Read(name) - before_[i]);
    }
    return 0.0;
  }

 private:
  // Counters by name; "<histogram>.sum" for a histogram's sample sum.
  static uint64_t Read(const std::string& name) {
    const obs::Registry& reg = obs::Registry::Global();
    const std::string suffix = ".sum";
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      const obs::Histogram* h =
          reg.FindHistogram(name.substr(0, name.size() - suffix.size()));
      return h == nullptr ? 0 : h->Snapshot().sum;
    }
    const obs::Counter* c = reg.FindCounter(name);
    return c == nullptr ? 0 : c->Value();
  }
  std::vector<std::string> names_;
  std::vector<uint64_t> before_;
};

const std::vector<std::string> kRunCounters = {
    "hierarchy.nodes_generated", "hierarchy.profit_evals",
    "alg.nodes_visited",         "threadpool.busy_ns",
    "threadpool.task_wait_us.sum", "framework.normalize_us.sum",
    "framework.merge_us.sum",    "framework.memo_hits",
    "framework.memo_misses",     "dist.assigns",
    "dist.ref_assigns",          "dist.bytes_sent",
    "dist.bytes_received"};

// ---- Result ------------------------------------------------------------

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Fail(const std::string& problem) {
    correct_ = false;
    std::cout << "CHECK FAILED: " << problem << "\n";
  }
  bool correct() const { return correct_; }
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void PrintMetrics(const std::string& heading) const {
    std::cout << heading << "\n";
    for (const auto& m : metrics_) {
      std::printf("  %-28s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  void PrintJson() const {
    JsonValue metrics = JsonValue::Object();
    for (const auto& m : metrics_) {
      JsonValue v = JsonValue::Object();
      v.Set("value", JsonValue::Number(m.value));
      v.Set("unit", JsonValue::Str(m.unit));
      metrics.Set(m.name, std::move(v));
    }
    JsonValue doc = JsonValue::Object();
    doc.Set("correct", JsonValue::Bool(correct_));
    doc.Set("attempted", JsonValue::Int(static_cast<int64_t>(attempted)));
    doc.Set("failed", JsonValue::Int(static_cast<int64_t>(failed)));
    doc.Set("metrics", std::move(metrics));
    std::cout.flush();
    std::printf("%s\n", doc.Dump().c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

// ---- Loading -----------------------------------------------------------

// What `midas discover` holds after its set-up: the open dump, the corpus,
// the source-range catalog for by-reference dist, and the KB.
struct Loaded {
  std::unique_ptr<store::ColumnarReader> reader;
  web::Corpus corpus;
  std::vector<rdf::TermId> remap;
  extract::SourceRangeCatalog ranges;
  std::unique_ptr<rdf::KnowledgeBase> kb;
};

Status Load(const std::string& dir, bool with_catalog, SpanLog* spans,
            Loaded* out) {
  const std::string dump = dir + "/" + kDumpFile;
  out->reader = std::make_unique<store::ColumnarReader>();
  {
    ScopedSpan span(spans, "store.open");
    store::ColumnarReadOptions options;
    options.lazy_verify = true;
    MIDAS_RETURN_IF_ERROR(out->reader->Open(dump, options));
  }
  {
    ScopedSpan span(spans, "extract.load");
    extract::ColumnarLoadOptions options;
    options.threshold = kThreshold;
    MIDAS_RETURN_IF_ERROR(extract::LoadColumnarCorpusFromReader(
        out->reader.get(), options, &out->corpus, &out->remap));
  }
  if (with_catalog) {
    ScopedSpan span(spans, "extract.source_catalog");
    if (!out->reader->has_source_index()) {
      return Status::Internal(dump + " carries no source-range index");
    }
    MIDAS_RETURN_IF_ERROR(extract::BuildSourceRangeCatalog(
        out->reader.get(), out->corpus, &out->ranges));
  }
  {
    ScopedSpan span(spans, "rdf.kb_load");
    out->kb = std::make_unique<rdf::KnowledgeBase>(out->corpus.shared_dict());
    std::vector<rdf::Triple> facts;
    MIDAS_RETURN_IF_ERROR(rdf::LoadTsvFacts(dir + "/" + kKbFile,
                                            out->corpus.mutable_dict(), &facts));
    out->kb->AddAll(facts);
  }
  return Status::OK();
}

// ---- Discovery ---------------------------------------------------------

core::MidasOptions DetectorOptions() {
  core::MidasOptions options;
  options.cost_model = core::CostModel{kCosts.f_p, kCosts.f_c, kCosts.f_d,
                                       kCosts.f_v};
  return options;
}

core::FrameworkOptions FrameworkOptionsFor(const Loaded& l, size_t threads) {
  core::FrameworkOptions options;
  options.num_threads = threads;
  options.corpus_fingerprint = l.reader->content_fingerprint();
  return options;
}

// A cold framework run: a fresh detector and framework, nothing memoized.
// The program's span buffer is emptied first, so every run pays the same
// tracing cost a fresh `midas discover` process does.
core::FrameworkResult RunFramework(const Loaded& l, size_t threads) {
  obs::Tracer::Global().Reset();
  const core::MidasAlg detector(DetectorOptions());
  const core::MidasFramework framework(&detector, FrameworkOptionsFor(l, threads));
  return framework.Run(l.corpus, *l.kb);
}

// A cold run through dist::DistCoordinator with kWorkers self-forked workers
// that take shards by reference to the shared columnar dump, as
// `midas discover --workers 2` runs it: fork, run, shut down.
Status RunDist(const Loaded& l, core::FrameworkResult* result) {
  obs::Tracer::Global().Reset();
  const core::MidasAlg detector(DetectorOptions());
  core::FrameworkOptions options = FrameworkOptionsFor(l, kThreads);
  const uint64_t fingerprint = core::ComputeRunFingerprint(l.corpus, options);
  core::ShardDetectOptions detect;
  detect.source_deadline_ms = options.source_deadline_ms;
  detect.max_retries = options.max_retries;
  detect.retry_backoff_ms = options.retry_backoff_ms;
  detect.run_seed = options.run_seed;

  dist::DistOptions dist_options;
  dist_options.fingerprint = fingerprint;
  dist_options.corpus_hash = l.reader->content_fingerprint();
  dist_options.ref_threshold = kThreshold;
  dist_options.source_ranges = &l.ranges;
  dist_options.num_workers = kWorkers;
  dist_options.worker_main = [&l, &detector, detect, fingerprint](int fd) {
    dist::WorkerConfig config;
    config.detector = &detector;
    config.kb = l.kb.get();
    config.dict = &l.corpus.dict();
    config.detect = detect;
    config.fingerprint = fingerprint;
    config.corpus_reader = l.reader.get();
    config.corpus_remap = &l.remap;
    const Status status = dist::RunWorkerLoop(fd, config);
    ::_exit(status.ok() ? 0 : 1);
  };
  dist::DistCoordinator coordinator(&l.corpus.dict(), dist_options);
  MIDAS_RETURN_IF_ERROR(coordinator.Start());
  options.executor = &coordinator;
  const core::MidasFramework framework(&detector, options);
  *result = framework.Run(l.corpus, *l.kb);
  coordinator.Shutdown();
  if (result->stats.shards_failed > 0 || result->partial) {
    return Status::Internal("dist run lost shards");
  }
  return Status::OK();
}

// ---- Serve helpers -------------------------------------------------------

struct DeltaFact {
  std::string url, subject, predicate, object;
  double confidence = 0;
};

Status LoadDeltas(const std::string& path,
                  std::vector<std::vector<DeltaFact>>* cycles) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    size_t cycle = 0;
    DeltaFact f;
    fields >> cycle;
    fields.ignore(1);
    std::getline(fields, f.url, '\t');
    std::getline(fields, f.subject, '\t');
    std::getline(fields, f.predicate, '\t');
    std::getline(fields, f.object, '\t');
    fields >> f.confidence;
    if (!fields || cycle > cycles->size()) {
      return Status::Corruption(path + ": bad delta row");
    }
    if (cycle == cycles->size()) cycles->emplace_back();
    cycles->back().push_back(std::move(f));
  }
  return Status::OK();
}

std::string IngestBody(const std::vector<DeltaFact>& delta) {
  JsonValue facts = JsonValue::Array();
  for (const DeltaFact& f : delta) {
    JsonValue row = JsonValue::Object();
    row.Set("url", JsonValue::Str(f.url));
    row.Set("subject", JsonValue::Str(f.subject));
    row.Set("predicate", JsonValue::Str(f.predicate));
    row.Set("object", JsonValue::Str(f.object));
    row.Set("confidence", JsonValue::Number(f.confidence));
    facts.Append(std::move(row));
  }
  JsonValue body = JsonValue::Object();
  body.Set("facts", std::move(facts));
  return body.Dump();
}

std::string DiscoverBody(int64_t top_k) {
  JsonValue body = JsonValue::Object();
  body.Set("method", JsonValue::Str("midas"));
  body.Set("f_p", JsonValue::Number(kCosts.f_p));
  body.Set("f_c", JsonValue::Number(kCosts.f_c));
  body.Set("f_d", JsonValue::Number(kCosts.f_d));
  body.Set("f_v", JsonValue::Number(kCosts.f_v));
  body.Set("top_k", JsonValue::Int(top_k));
  return body.Dump();
}

// The corpus as the benchmark tracks it apart from the service: the
// initial load plus every ingested fact, deduplicated and thresholded by
// the benchmark's own per-source sets.
class TrackedCorpus {
 public:
  struct Tally {
    int64_t added = 0, duplicates = 0, below_threshold = 0;
  };

  Status Init(const std::string& dir) {
    MIDAS_RETURN_IF_ERROR(Load(dir, /*with_catalog=*/false, nullptr, &l_));
    for (size_t i = 0; i < l_.corpus.sources().size(); ++i) {
      index_[l_.corpus.sources()[i].url] = i;
    }
    return Status::OK();
  }

  // Applies one delta; returns what the service must report for it.
  Status Apply(const std::vector<DeltaFact>& delta, Tally* tally) {
    *tally = Tally{};
    rdf::Dictionary* dict = l_.corpus.mutable_dict();
    for (const DeltaFact& f : delta) {
      if (!(f.confidence > kThreshold)) {
        tally->below_threshold++;
        continue;
      }
      auto it = index_.find(f.url);
      if (it == index_.end()) return Status::Internal("delta to unknown " + f.url);
      TripleSet& seen = seen_[it->second];
      if (seen.empty()) {
        const auto& facts = l_.corpus.sources()[it->second].facts;
        seen.insert(facts.begin(), facts.end());
      }
      // Only the object term can be new (see gen.cc), so interning order
      // matches the service's and both dictionaries stay id-identical.
      const rdf::TermId s = dict->Intern(f.subject);
      const rdf::TermId p = dict->Intern(f.predicate);
      const rdf::TermId o = dict->Intern(f.object);
      const rdf::Triple t(s, p, o);
      if (seen.insert(t).second) {
        l_.corpus.AppendFactToSourceUnchecked(it->second, t);
        tally->added++;
      } else {
        tally->duplicates++;
      }
    }
    return Status::OK();
  }

  const Loaded& loaded() const { return l_; }

 private:
  Loaded l_;
  std::unordered_map<std::string, size_t> index_;
  std::unordered_map<size_t, TripleSet> seen_;
};

std::string CheckTally(const JsonValue& reply, const TrackedCorpus::Tally& t) {
  const JsonValue* a = reply.Get("added");
  const JsonValue* d = reply.Get("duplicates");
  const JsonValue* b = reply.Get("below_threshold");
  if (a == nullptr || d == nullptr || b == nullptr) return "ingest reply lacks counts";
  if (a->AsInt(-1) != t.added || d->AsInt(-1) != t.duplicates ||
      b->AsInt(-1) != t.below_threshold) {
    return "ingest counted " + std::to_string(a->AsInt(-1)) + "/" +
           std::to_string(d->AsInt(-1)) + "/" + std::to_string(b->AsInt(-1)) +
           ", benchmark tally " + std::to_string(t.added) + "/" +
           std::to_string(t.duplicates) + "/" +
           std::to_string(t.below_threshold);
  }
  return "";
}

std::string CheckCachedBody(const std::string& miss, const std::string& hit) {
  if (miss == hit) return "";
  return "cached body differs from the miss it was cached from";
}

// Empty iff the /discover reply lists exactly `want`'s slices.
std::string CompareReply(const JsonValue& reply,
                         const std::vector<core::DiscoveredSlice>& want,
                         const rdf::Dictionary& dict) {
  const JsonValue* slices = reply.Get("slices");
  if (slices == nullptr || !slices->IsArray()) return "reply has no slices";
  if (slices->size() != want.size()) {
    return "reply has " + std::to_string(slices->size()) +
           " slices, cold run " + std::to_string(want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    const JsonValue& row = slices->at(i);
    const core::DiscoveredSlice& s = want[i];
    const JsonValue* url = row.Get("source_url");
    const JsonValue* props = row.Get("properties");
    const JsonValue* nf = row.Get("num_facts");
    const JsonValue* nn = row.Get("num_new_facts");
    const JsonValue* profit = row.Get("profit");
    bool same = url != nullptr && props != nullptr && nf != nullptr &&
                nn != nullptr && profit != nullptr &&
                url->AsString("") == s.source_url &&
                nf->AsInt(-1) == static_cast<int64_t>(s.num_facts) &&
                nn->AsInt(-1) == static_cast<int64_t>(s.num_new_facts) &&
                profit->AsDouble(NAN) == s.profit &&
                props->size() == s.properties.size();
    for (size_t k = 0; same && k < s.properties.size(); ++k) {
      const JsonValue* p = props->at(k).Get("predicate");
      const JsonValue* v = props->at(k).Get("value");
      same = p != nullptr && v != nullptr &&
             p->AsString("") == dict.Term(s.properties[k].predicate) &&
             v->AsString("") == dict.Term(s.properties[k].value);
    }
    if (!same) return "slice " + std::to_string(i) + " differs from the cold run";
  }
  return "";
}

// Pins the calling thread, and every thread it starts while this lives, to
// the CPU it runs on, and restores its former CPU set at the end. The serve
// loop runs pinned: a request passes four thread hand-offs (client, event
// loop, handler, event loop, client), and across CPUs each one wakes another
// vCPU, whose wake-up latency is the hypervisor's, not the program's.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    CPU_ZERO(&saved_);
    cpu_ = sched_getcpu();
    if (cpu_ < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      cpu_ = -1;
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) cpu_ = -1;
  }
  ~PinToOneCpu() {
    if (cpu_ >= 0) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;
  int cpu() const { return cpu_; }  // -1 when pinning failed

 private:
  cpu_set_t saved_;
  int cpu_ = -1;
};

// One booted `midas serve`: the service over a loaded corpus, its HTTP
// server on an ephemeral loopback port, and a connected client.
struct Boot {
  std::unique_ptr<serve::DiscoveryService> service;
  std::unique_ptr<serve::HttpServer> server;
  LoopbackClient client;
  HttpReply first;  // the cold /discover that filled the memo

  ~Boot() {
    client.Close();
    if (server != nullptr) server->Shutdown();
  }
};

Status BootServer(const std::string& dir, SpanLog* spans, Boot* boot) {
  Loaded l;
  MIDAS_RETURN_IF_ERROR(Load(dir, /*with_catalog=*/false, spans, &l));
  serve::DiscoveryServiceOptions service_options;
  service_options.confidence_threshold = kThreshold;
  service_options.num_threads = kThreads;
  {
    ScopedSpan span(spans, "serve.service_init");
    boot->service = std::make_unique<serve::DiscoveryService>(
        std::move(l.corpus), std::move(*l.kb), service_options);
  }
  serve::HttpServerOptions server_options;
  server_options.port = 0;
  server_options.num_threads = 1;
  serve::DiscoveryService* service = boot->service.get();
  boot->server = std::make_unique<serve::HttpServer>(
      server_options, [service](const serve::HttpRequest& request,
                                const fault::CancelToken& cancel) {
        return service->Handle(request, cancel);
      });
  {
    ScopedSpan span(spans, "serve.start");
    MIDAS_RETURN_IF_ERROR(boot->server->Start());
    MIDAS_RETURN_IF_ERROR(boot->client.Connect(boot->server->port()));
  }
  obs::Tracer::Global().Reset();
  ScopedSpan span(spans, "serve.cold_discover");
  MIDAS_RETURN_IF_ERROR(
      boot->client.Post("/discover", DiscoverBody(20), &boot->first));
  if (boot->first.status != 200 || boot->first.cache != "miss") {
    return Status::Internal("first /discover was not a cold miss");
  }
  return Status::OK();
}

// ---- Workloads ---------------------------------------------------------

struct Options {
  std::string workload;
  std::string dir;
  double seconds = 10;
  bool trace = false;
};

// Untraced and traced samples of each end-to-end metric.
struct Samples {
  std::map<std::string, std::vector<double>> plain, traced;
  std::vector<double>& Of(bool traced_pass, const std::string& name) {
    return traced_pass ? traced[name] : plain[name];
  }
};

void PrintSamples(const Samples& s) {
  std::cout << "samples (untraced): n, min, q1, median, q3, p90, max\n";
  for (const auto& [name, v] : s.plain) {
    std::printf("  %-24s %4zu %12.6f %12.6f %12.6f %12.6f %12.6f %12.6f\n",
                name.c_str(), v.size(), Quantile(v, 0), Quantile(v, 0.25),
                Quantile(v, 0.5), Quantile(v, 0.75), Quantile(v, 0.9),
                Quantile(v, 1));
  }
}

void PrintTracingOverhead(const Samples& s) {
  std::cout << "end-to-end medians, untraced vs traced (tracing overhead):\n";
  for (const auto& [name, plain] : s.plain) {
    auto it = s.traced.find(name);
    if (it == s.traced.end() || plain.empty() || it->second.empty()) continue;
    const double a = Median(plain), b = Median(it->second);
    std::printf("  %-24s %12.6f %12.6f  %+6.2f%%  (n=%zu/%zu)\n", name.c_str(),
                a, b, a > 0 ? 100.0 * (b - a) / a : 0.0, plain.size(),
                it->second.size());
  }
}

// Prints each damaged result's verdict; a damaged result the checker
// accepts fails the run.
void ReportSelfTest(
    const std::vector<std::pair<std::string, std::string>>& damaged,
    Report* report) {
  for (const auto& [what, verdict] : damaged) {
    std::cout << "self-test: " << what << ": "
              << (verdict.empty() ? "ACCEPTED" : "rejected (" + verdict + ")")
              << "\n";
    if (verdict.empty()) report->Fail("checker accepted: " + what);
  }
}

// Cold discovery: one dist run, then rounds of set-up, 1-thread and
// 2-thread runs for at least `budget_s` and kMinRounds rounds. Every result
// must equal the checked 2-thread reference. Fills the "load_s",
// "discover_1t_s", "discover_s" and "dist_discover_s" samples and the
// slice F1.
Status BatchPhase(const Options& opt, double budget_s, Report* report,
                  SpanLog* spans, Samples* samples, double* f1) {
  const std::string& dir = opt.dir;
  Loaded main;
  TripleSet kb_set;
  std::vector<std::vector<rdf::Triple>> silver;
  MIDAS_RETURN_IF_ERROR(Load(dir, /*with_catalog=*/true, nullptr, &main));
  MIDAS_RETURN_IF_ERROR(
      LoadTripleSet(dir + "/" + kKbFile, main.corpus.dict(), &kb_set));
  MIDAS_RETURN_IF_ERROR(
      LoadSilver(dir + "/" + kSilverFile, main.corpus.dict(), &silver));
  std::cout << "corpus: " << main.corpus.NumFacts() << " facts over "
            << main.corpus.NumSources() << " sources; KB " << main.kb->size()
            << " facts; " << silver.size() << " silver slices\n";

  // The reference: a 2-thread result checked against the benchmark's own
  // computations. Every timed run must reproduce it exactly.
  const core::FrameworkResult reference = RunFramework(main, kThreads);
  if (std::string p = CheckSlices(main.corpus, kb_set, kCosts, reference.slices);
      !p.empty()) {
    report->Fail("2-thread result: " + p);
  }
  *f1 = SliceF1(reference.slices, silver, kSilverJaccard);
  if (!(*f1 > 0)) report->Fail("slice_f1 is 0");
  std::cout << "reference: " << reference.slices.size() << " slices, "
            << reference.stats.shards_processed << " shards, slice F1 " << *f1
            << "\n";

  const std::vector<std::string> ops = {"load_s", "discover_1t_s", "load_s",
                                        "discover_s"};
  const auto run_op = [&](const std::string& op, bool traced) {
    spans->set_enabled(traced);
    spans->NextRequest();
    ScopedSpan span(spans, "op." + op);
    ObsDelta delta(kRunCounters);
    core::FrameworkResult result;
    Status status;
    Loaded fresh;
    const double t0 = NowS();
    if (op == "load_s") {
      status = Load(dir, /*with_catalog=*/true, spans, &fresh);
    } else if (op == "discover_1t_s") {
      result = RunFramework(main, 1);
    } else if (op == "discover_s") {
      result = RunFramework(main, kThreads);
    } else {
      status = RunDist(main, &result);
    }
    const double dt = NowS() - t0;
    if (traced) {
      for (const auto& name : kRunCounters) span.Arg(name, delta[name]);
    }
    report->attempted++;
    if (!status.ok()) {
      report->failed++;
      std::cout << op << " failed: " << status.ToString() << "\n";
      return;
    }
    samples->Of(traced, op).push_back(dt);
    if (op == "load_s") {
      if (fresh.corpus.NumFacts() != main.corpus.NumFacts() ||
          fresh.kb->size() != main.kb->size()) {
        report->Fail("a set-up loaded another corpus shape");
      }
    } else if (std::string p = CompareSlices(reference.slices, result.slices);
               !p.empty()) {
      report->Fail(op + " result differs from the 2-thread reference: " + p);
    }
  };

  // A dist run costs a coordinator round trip per shard, so its time
  // follows the host's scheduling latency more than the program (README.md):
  // it runs once, for the cross-mode check, and its time is printed only.
  const double start = NowS();
  run_op("dist_discover_s", false);
  if (opt.trace) run_op("dist_discover_s", true);
  int rounds = 0;
  while ((NowS() - start < budget_s || rounds < kMinRounds) &&
         NowS() - start < kMaxWindowS) {
    // Rotate the order each round, so that slow host phases hit every
    // operation alike.
    for (size_t k = 0; k < ops.size(); ++k) {
      const std::string& op =
          ops[(k + static_cast<size_t>(rounds)) % ops.size()];
      run_op(op, false);
      if (opt.trace) run_op(op, true);
    }
    ++rounds;
  }
  spans->set_enabled(false);
  std::cout << "batch: " << rounds << " rounds in " << NowS() - start << " s\n";

  // Checker self-test: damaged results must be rejected.
  std::vector<std::pair<std::string, std::string>> damaged;
  auto slices = reference.slices;
  size_t i = 0;
  while (i < slices.size() && slices[i].facts.size() < 2) ++i;
  if (i == slices.size()) return Status::Internal("no slice to damage");
  slices[i].facts.pop_back();
  damaged.emplace_back("slice with one fact removed",
                       CheckSlices(main.corpus, kb_set, kCosts, slices));
  slices = reference.slices;
  slices.back().num_new_facts += 1;
  damaged.emplace_back("num_new_facts off by one",
                       CheckSlices(main.corpus, kb_set, kCosts, slices));
  slices = reference.slices;
  slices.erase(slices.begin() + static_cast<ptrdiff_t>(slices.size() / 2));
  damaged.emplace_back("2-thread result with one slice dropped",
                       CompareSlices(reference.slices, slices));
  ReportSelfTest(damaged, report);
  return Status::OK();
}

// The closed loop against `midas serve`: one boot (set-up plus the first
// cold /discover), then ingest cycles of POST /ingest, POST /discover
// (the memo path) and the same /discover kHits times (cache hits), for at
// least `budget_s` and kMinCycles untraced cycles, on one CPU. Fills the
// "boot_s", "ingest_ms", "rediscover_ms", "first_hit_ms" and
// "cached_discover_ms" samples.
Status ServePhase(const Options& opt, double budget_s, Report* report,
                  SpanLog* spans, Samples* samples) {
  const std::string& dir = opt.dir;
  std::vector<std::vector<DeltaFact>> deltas;
  TrackedCorpus tracked;
  MIDAS_RETURN_IF_ERROR(LoadDeltas(dir + "/" + kDeltasFile, &deltas));
  MIDAS_RETURN_IF_ERROR(tracked.Init(dir));

  const PinToOneCpu pin;
  std::cout << "serve: server and client threads pinned to cpu " << pin.cpu()
            << "\n";
  const double start = NowS();
  auto boot = std::make_unique<Boot>();
  report->attempted++;
  const double boot_start = NowS();
  if (Status st = BootServer(dir, nullptr, boot.get()); !st.ok()) {
    report->failed++;
    return st;
  }
  samples->plain["boot_s"].push_back(NowS() - boot_start);

  const std::string discover = DiscoverBody(20);
  const auto& plain_rediscovers = samples->plain["rediscover_ms"];
  size_t cycle = 0;
  while ((NowS() - start < budget_s || plain_rediscovers.size() < kMinCycles) &&
         NowS() - start < kMaxWindowS && cycle < deltas.size()) {
    const bool traced = opt.trace && cycle % 2 == 1;
    spans->set_enabled(traced);
    spans->NextRequest();
    const std::vector<DeltaFact>& delta = deltas[cycle++];
    const std::string body = IngestBody(delta);
    HttpReply ingest, miss;
    Status st;

    obs::Tracer::Global().Reset();
    double t0 = NowS();
    {
      ScopedSpan span(spans, "op.ingest");
      st = boot->client.Post("/ingest", body, &ingest);
    }
    samples->Of(traced, "ingest_ms").push_back((NowS() - t0) * 1e3);
    report->attempted++;
    if (!st.ok() || ingest.status != 200) {
      report->failed++;
      continue;
    }
    t0 = NowS();
    {
      ScopedSpan span(spans, "op.rediscover");
      ObsDelta delta_counters(kRunCounters);
      st = boot->client.Post("/discover", discover, &miss);
      span.Arg("memo_hits", delta_counters["framework.memo_hits"]);
      span.Arg("memo_misses", delta_counters["framework.memo_misses"]);
    }
    samples->Of(traced, "rediscover_ms").push_back((NowS() - t0) * 1e3);
    report->attempted++;
    if (!st.ok() || miss.status != 200) {
      report->failed++;
      continue;
    }
    // The same /discover again, kHits times, each a result-cache hit. The
    // first also waits for work the rediscover left running on the server
    // (README.md), so its time is a sample of its own.
    std::vector<HttpReply> hits(kHits);
    bool hits_ok = true;
    for (size_t k = 0; k < kHits && hits_ok; ++k) {
      t0 = NowS();
      {
        ScopedSpan span(spans, "op.cached_discover");
        st = boot->client.Post("/discover", discover, &hits[k]);
      }
      samples->Of(traced, k == 0 ? "first_hit_ms" : "cached_discover_ms")
          .push_back((NowS() - t0) * 1e3);
      report->attempted++;
      if (!st.ok() || hits[k].status != 200) {
        report->failed++;
        hits_ok = false;
      }
    }
    if (!hits_ok) continue;

    // Checks, outside the timed calls.
    std::string problem;
    TrackedCorpus::Tally tally;
    JsonValue parsed;
    if (Status s = tracked.Apply(delta, &tally); !s.ok()) {
      problem = s.ToString();
    } else if (Status s = JsonValue::Parse(ingest.body, &parsed); !s.ok()) {
      problem = "ingest reply: " + s.ToString();
    } else if (std::string p = CheckTally(parsed, tally); !p.empty()) {
      problem = p;
    } else if (miss.cache != "miss") {
      problem = "rediscover cache header " + miss.cache + ", expected miss";
    } else {
      for (const HttpReply& hit : hits) {
        problem = hit.cache != "hit"
                      ? "cached discover header " + hit.cache + ", expected hit"
                      : CheckCachedBody(miss.body, hit.body);
        if (!problem.empty()) break;
      }
    }
    if (!problem.empty()) {
      report->Fail("cycle " + std::to_string(cycle - 1) + ": " + problem);
      break;
    }
  }
  spans->set_enabled(false);
  std::cout << "serve: " << cycle << " ingest cycles in " << NowS() - start
            << " s\n";
  if (plain_rediscovers.size() < kMinCycles) {
    report->Fail("too few rediscover samples");
  }

  // The final rediscover must equal a cold run over the tracked corpus.
  HttpReply final_reply;
  JsonValue final_json;
  MIDAS_RETURN_IF_ERROR(
      boot->client.Post("/discover", DiscoverBody(0), &final_reply));
  MIDAS_RETURN_IF_ERROR(JsonValue::Parse(final_reply.body, &final_json));
  const core::FrameworkResult cold = RunFramework(tracked.loaded(), kThreads);
  const rdf::Dictionary& dict = tracked.loaded().corpus.dict();
  if (std::string p = CompareReply(final_json, cold.slices, dict); !p.empty()) {
    report->Fail("final rediscover vs cold run: " + p);
  } else {
    std::cout << "final rediscover equals a cold run over the tracked corpus ("
              << cold.slices.size() << " slices)\n";
  }

  // Checker self-test: damaged results must be rejected.
  std::vector<std::pair<std::string, std::string>> damaged;
  std::string body = boot->first.body;
  body[body.size() / 2] ^= 1;
  damaged.emplace_back("cached body one byte off",
                       CheckCachedBody(boot->first.body, body));
  if (cold.slices.empty()) return Status::Internal("no slice to damage");
  auto slices = cold.slices;
  slices.front().num_new_facts += 1;
  damaged.emplace_back("num_new_facts off by one",
                       CompareReply(final_json, slices, dict));
  JsonValue reply = JsonValue::Object();
  reply.Set("added", JsonValue::Int(kNovelPerDelta + 1));
  reply.Set("duplicates", JsonValue::Int(1));
  reply.Set("below_threshold", JsonValue::Int(1));
  damaged.emplace_back("ingest count off by one",
                       CheckTally(reply, {kNovelPerDelta, 1, 1}));
  ReportSelfTest(damaged, report);
  return Status::OK();
}

// Every workload runs both phases, the batch phase for two thirds of the
// window, so every run reports every end-to-end metric; the workload decides
// the corpus.
Status RunWorkload(const Options& opt, Report* report, SpanLog* spans) {
  Samples samples;
  double f1 = 0;
  const double start = NowS();
  MIDAS_RETURN_IF_ERROR(
      BatchPhase(opt, opt.seconds * 2.0 / 3, report, spans, &samples, &f1));
  MIDAS_RETURN_IF_ERROR(ServePhase(opt, opt.seconds - (NowS() - start), report,
                                   spans, &samples));
  PrintSamples(samples);
  if (opt.trace) {
    PrintTracingOverhead(samples);
    return Status::OK();
  }
  const auto median = [&](const std::string& name) {
    return Median(samples.plain[name]);
  };
  report->Add("setup_s", median("load_s"), "s");
  report->Add("discover_s", median("discover_s"), "s");
  report->Add("discover_1t_s", median("discover_1t_s"), "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MiB");
  report->Add("slice_f1", f1, "ratio");
  report->Add("cached_discover_p50_ms", median("cached_discover_ms"), "ms");
  return Status::OK();
}

// ---- Per-layer probes (traced run) -----------------------------------------

// Times each layer's public entry point from outside, with spans, and reads
// the program's obs counters across the calls. Runs on every workload's
// corpus; which end-to-end metric each number should move is in README.md.
Status RunProbes(const std::string& dir, bool per_rediscover, Report* report,
                 SpanLog* spans) {
  spans->set_enabled(true);
  spans->NextRequest();
  constexpr int kReps = 3;
  // Load() records a span around each public call it makes.
  const std::vector<std::string> load_spans = {"store.open", "extract.load",
                                               "rdf.kb_load"};
  std::map<std::string, std::vector<double>> load_ms;
  Loaded l;
  for (int rep = 0; rep < kReps; ++rep) {
    Loaded fresh;
    MIDAS_RETURN_IF_ERROR(Load(dir, /*with_catalog=*/true, spans, &fresh));
    for (const auto& name : load_spans) {
      load_ms[name].push_back(spans->LastDuration(name) * 1e3);
    }
    if (rep == 0) l = std::move(fresh);
  }
  for (const auto& name : load_spans) {
    report->Add(name + "_ms", Median(load_ms[name]), "ms");
  }

  // KnowledgeBase::Contains over every corpus fact, and the URL hierarchy
  // over every corpus URL.
  std::vector<double> contains_ns, hierarchy_ms;
  size_t facts = 0, found = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    ScopedSpan span(spans, "rdf.contains");
    const double t0 = NowS();
    facts = found = 0;
    for (const auto& src : l.corpus.sources()) {
      for (const rdf::Triple& t : src.facts) {
        found += l.kb->Contains(t) ? 1 : 0;
        ++facts;
      }
    }
    contains_ns.push_back((NowS() - t0) * 1e9 / static_cast<double>(facts));
    span.Arg("found", static_cast<double>(found));
  }
  for (int rep = 0; rep < kReps; ++rep) {
    ScopedSpan span(spans, "web.url_hierarchy");
    const double t0 = NowS();
    web::UrlHierarchy hierarchy;
    for (const auto& src : l.corpus.sources()) hierarchy.Insert(src.url);
    hierarchy_ms.push_back((NowS() - t0) * 1e3);
    span.Arg("nodes", static_cast<double>(hierarchy.size()));
  }
  report->Add("rdf.contains_ns", Median(contains_ns), "ns");
  report->Add("web.url_hierarchy_ms", Median(hierarchy_ms), "ms");

  // MidasAlg::Detect, on one thread, on every shard the framework's rounds
  // form: each URL with the normalized facts of its whole subtree (no child
  // seeds). The pass covers the domain-level shards too, where the
  // ClosedIE corpus's one giant domain sets the slowest shard.
  {
    std::map<std::string, std::vector<rdf::Triple>> shards;
    for (const auto& src : l.corpus.sources()) {
      const size_t host = src.url.find("://");
      const size_t host_end = host == std::string::npos ? 0 : host + 3;
      for (std::string url = src.url;;) {
        auto& facts = shards[url];
        facts.insert(facts.end(), src.facts.begin(), src.facts.end());
        const size_t slash = url.rfind('/');
        if (slash == std::string::npos || slash < host_end) break;
        url.resize(slash);
      }
    }
    const core::MidasAlg detector(DetectorOptions());
    double total = 0, slowest = 0;
    ScopedSpan span(spans, "core.detect_all");
    for (auto& [url, shard] : shards) {
      std::sort(shard.begin(), shard.end());
      shard.erase(std::unique(shard.begin(), shard.end()), shard.end());
      core::SourceInput input;
      input.url = url;
      input.facts = &shard;
      const double t0 = NowS();
      const auto slices = detector.Detect(input, *l.kb);
      const double dt = NowS() - t0;
      total += dt;
      slowest = std::max(slowest, dt);
    }
    span.Arg("shards", static_cast<double>(shards.size()));
    report->Add("core.detect_ms", total * 1e3, "ms");
    report->Add("core.detect_max_ms", slowest * 1e3, "ms");
  }

  // Cold framework runs at 1 and 2 threads, and through dist.
  double busy_1t = 0;
  {
    ScopedSpan span(spans, "core.framework_1t");
    ObsDelta d(kRunCounters);
    RunFramework(l, 1);
    report->Add("core.hierarchy_nodes", d["hierarchy.nodes_generated"], "count");
    report->Add("core.profit_evals", d["hierarchy.profit_evals"], "count");
    report->Add("core.nodes_visited", d["alg.nodes_visited"], "count");
    busy_1t = d["threadpool.busy_ns"];
  }
  {
    ScopedSpan span(spans, "core.framework_2t");
    ObsDelta d(kRunCounters);
    RunFramework(l, kThreads);
    report->Add("threadpool.busy_ms", d["threadpool.busy_ns"] / 1e6, "ms");
    report->Add("threadpool.task_wait_ms", d["threadpool.task_wait_us.sum"] / 1e3,
                "ms");
    report->Add("threadpool.cpu_inflation",
                busy_1t > 0 ? d["threadpool.busy_ns"] / busy_1t : 0.0, "ratio");
    if (!per_rediscover) {
      report->Add("core.normalize_ms", d["framework.normalize_us.sum"] / 1e3,
                  "ms");
      report->Add("core.merge_ms", d["framework.merge_us.sum"] / 1e3, "ms");
    }
  }
  {
    ScopedSpan span(spans, "dist.run");
    ObsDelta d(kRunCounters);
    core::FrameworkResult result;
    const double t0 = NowS();
    MIDAS_RETURN_IF_ERROR(RunDist(l, &result));
    const double ms = (NowS() - t0) * 1e3;
    const double assigns = std::max(1.0, d["dist.assigns"]);
    report->Add("dist.bytes_per_unit",
                (d["dist.bytes_sent"] + d["dist.bytes_received"]) / assigns,
                "B");
    report->Add("dist.ms_per_unit", ms / assigns, "ms");
    report->Add("dist.ref_assign_ratio", d["dist.ref_assigns"] / assigns, "ratio");
  }
  return Status::OK();
}

// The serve layer's probes: DiscoveryService::Handle called directly for an
// ingest and for a cache hit, the same hit over loopback, and the memo and
// cache ratios across a few ingest cycles.
Status RunServeProbes(const std::string& dir, bool per_rediscover,
                      Report* report, SpanLog* spans) {
  std::vector<std::vector<DeltaFact>> deltas;
  MIDAS_RETURN_IF_ERROR(LoadDeltas(dir + "/" + kDeltasFile, &deltas));
  const PinToOneCpu pin;  // as in ServePhase
  Boot boot;
  MIDAS_RETURN_IF_ERROR(BootServer(dir, spans, &boot));
  const std::string discover = DiscoverBody(20);
  const fault::CancelToken no_cancel;
  std::vector<double> ingest_handle, handle, http, memo_ratio, normalize, merge;
  for (size_t c = 0; c < kProbeCycles && c < deltas.size(); ++c) {
    spans->NextRequest();
    serve::HttpRequest ingest;
    ingest.method = "POST";
    ingest.target = "/ingest";
    ingest.version = "HTTP/1.1";
    ingest.body = IngestBody(deltas[c]);
    {
      ScopedSpan span(spans, "serve.handle_ingest");
      const double t0 = NowS();
      const serve::HttpResponse r = boot.service->Handle(ingest, no_cancel);
      ingest_handle.push_back((NowS() - t0) * 1e3);
      if (r.status != 200) return Status::Internal("probe ingest failed");
    }
    HttpReply miss, hit;
    {
      ScopedSpan span(spans, "serve.rediscover");
      ObsDelta d(kRunCounters);
      obs::Tracer::Global().Reset();
      MIDAS_RETURN_IF_ERROR(boot.client.Post("/discover", discover, &miss));
      const double hits = d["framework.memo_hits"];
      const double misses = d["framework.memo_misses"];
      memo_ratio.push_back(hits + misses > 0 ? hits / (hits + misses) : 0.0);
      normalize.push_back(d["framework.normalize_us.sum"] / 1e3);
      merge.push_back(d["framework.merge_us.sum"] / 1e3);
    }
    serve::HttpRequest cached = ingest;
    cached.target = "/discover";
    cached.body = discover;
    {
      ScopedSpan span(spans, "serve.handle_hit");
      const double t0 = NowS();
      const serve::HttpResponse r = boot.service->Handle(cached, no_cancel);
      handle.push_back((NowS() - t0) * 1e3);
      if (r.body != miss.body) return Status::Internal("probe hit differs");
    }
    {
      ScopedSpan span(spans, "serve.http_hit");
      const double t0 = NowS();
      MIDAS_RETURN_IF_ERROR(boot.client.Post("/discover", discover, &hit));
      http.push_back((NowS() - t0) * 1e3);
      if (hit.cache != "hit") return Status::Internal("probe hit missed");
    }
  }
  const double hits = static_cast<double>(boot.service->cache().hits());
  const double lookups = hits + static_cast<double>(boot.service->cache().misses());
  report->Add("serve.ingest_handle_ms", Median(ingest_handle), "ms");
  report->Add("serve.handle_ms", Median(handle), "ms");
  report->Add("serve.http_ms", std::max(0.0, Median(http) - Median(handle)), "ms");
  report->Add("serve.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  report->Add("core.memo_hit_ratio", Median(memo_ratio), "ratio");
  if (per_rediscover) {
    report->Add("core.normalize_ms", Median(normalize), "ms");
    report->Add("core.merge_ms", Median(merge), "ms");
  }
  return Status::OK();
}

}  // namespace
}  // namespace perfbench
}  // namespace midas

int main(int argc, char** argv) {
  using namespace midas::perfbench;
  midas::FlagParser flags;
  flags.AddString("workload", "", "batch_closedie|batch_openie");
  flags.AddString("data", "", "generated input directory (perfbench_gen)");
  flags.AddInt64("seed", 0, "seed the inputs were generated from");
  flags.AddDouble("seconds", 10, "measuring window");
  flags.AddInt64("trace", 0, "1 = traced run reporting per-layer metrics");
  flags.AddString("trace_out", "", "write the spans here (Chrome trace JSON)");
  flags.AddString("fingerprints", "", "input fingerprints, for the manifest");
  if (midas::Status st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << "perfbench_run: " << st.ToString() << "\n";
    return 2;
  }
#ifndef NDEBUG
  std::cerr << "perfbench_run: refusing to measure a non-Release build\n";
  return 2;
#endif
  Options opt;
  opt.workload = flags.GetString("workload");
  opt.dir = flags.GetString("data");
  opt.seconds = flags.GetDouble("seconds");
  opt.trace = flags.GetInt64("trace") != 0;
  if (opt.workload != "batch_closedie" && opt.workload != "batch_openie") {
    std::cerr << "perfbench_run: unknown --workload '" << opt.workload << "'\n";
    return 2;
  }

  const uint64_t steal_before = StealTicks();
  std::cout << "manifest: workload " << opt.workload << ", seed "
            << flags.GetInt64("seed") << ", trace " << opt.trace
            << ", seconds " << opt.seconds << "\n"
            << "manifest: nproc " << std::thread::hardware_concurrency()
            << ", cpu " << CpuModel() << ", build release\n"
            << "manifest: framework threads " << kThreads << ", dist workers "
            << kWorkers << ", serve handler threads 1\n"
            << "manifest: inputs " << flags.GetString("fingerprints") << "\n";

  Report report;
  SpanLog spans;
  if (opt.trace) {
    // ClosedIE carries the serve loop's layers: its core.normalize_ms and
    // core.merge_ms are per rediscover, OpenIE's per cold 2-thread run.
    const bool per_rediscover = opt.workload == "batch_closedie";
    midas::Status st = RunProbes(opt.dir, per_rediscover, &report, &spans);
    if (st.ok()) st = RunServeProbes(opt.dir, per_rediscover, &report, &spans);
    if (!st.ok()) {
      std::cerr << "perfbench_run: probe: " << st.ToString() << "\n";
      return 1;
    }
  }
  if (midas::Status st = RunWorkload(opt, &report, &spans); !st.ok()) {
    std::cerr << "perfbench_run: " << st.ToString() << "\n";
    return 1;
  }
  const uint64_t steal_after = StealTicks();
  std::cout << "manifest: steal ticks " << steal_before << " -> " << steal_after
            << " (+" << steal_after - steal_before << ")\n";
  if (!flags.GetString("trace_out").empty()) {
    if (midas::Status st = spans.Write(flags.GetString("trace_out")); !st.ok()) {
      std::cerr << "perfbench_run: " << st.ToString() << "\n";
    }
  }
  report.PrintMetrics(opt.trace ? "per-layer metrics:" : "end-to-end metrics:");
  report.PrintJson();
  return report.correct() ? 0 : 1;
}
