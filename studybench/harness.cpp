// Study benchmark harness: one workload per process, timed from outside
// through the library's public calls.
//
//   studybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Captures go under .bench_build/work/ of the current directory.
//
// --trace 0 times untraced passes (population set-up, study, report, JSON
// and, on the capture workloads, the capture and its replay) for at least
// --seconds and reports medians. --trace 1 alternates untraced and traced
// passes and reports per-layer self times from obs::SpanProfiler plus exact
// counts from StudyResult::metrics. Every correctness check counts as one
// attempted operation. The last stdout line is a single JSON record; run.py
// turns it into the benchmark result. See README.md for every metric.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/kad_study.h"
#include "core/replay.h"
#include "core/report.h"
#include "core/study.h"
#include "obs/json.h"
#include "obs/profile.h"
#include "sim/network.h"
#include "span_table.h"
#include "trace/reader.h"
#include "trace/segment.h"
#include "trace/writer.h"

extern char** environ;

#ifndef STUDYBENCH_BUILD_TYPE
#define STUDYBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace p2p;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Net { kLimewire, kOpenft, kKad };
enum class Capture { kNone, kFile, kDir };

struct Workload {
  const char* name;
  Net net;
  /// Also checks, untimed, the sharded engine's byte-identity contract on
  /// this workload's inputs.
  bool shard_check;
  Capture capture;
  /// Simulated crawl length; the population is the network's standard preset.
  int sim_hours;
};

constexpr std::size_t kMaxShards = 4;
constexpr std::size_t kMaxReplayJobs = 4;
/// Segment window of the KAD capture: several segments per run, so the
/// out-of-core replay has work to fan out.
constexpr std::int64_t kSegmentWindowMs = 3 * 3'600'000ll;
constexpr std::size_t kSetupCalls = 2;
constexpr std::size_t kMinPasses = 3;
/// Untraced/traced pass pairs behind obs.trace_overhead_ratio.
constexpr std::size_t kOverheadPairs = 3;

constexpr Workload kWorkloads[] = {
    {"limewire-serial", Net::kLimewire, true, Capture::kNone, 24},
    {"openft-record-replay", Net::kOpenft, false, Capture::kFile, 120},
    {"kad-honeypot-capture", Net::kKad, false, Capture::kDir, 12},
};

const char* net_name(Net net) {
  switch (net) {
    case Net::kLimewire: return "limewire";
    case Net::kOpenft: return "openft";
    case Net::kKad: return "kad";
  }
  return "";
}

/// The study inputs: the network's standard preset with the workload seed
/// as the study seed (what the study CLIs' --seed sets) and the workload's
/// crawl length.
struct Inputs {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  std::size_t shards = 0;
  core::LimewireStudyConfig lw;
  core::OpenFtStudyConfig ft;
  core::KadStudyConfig kad;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed, std::size_t shards) {
  Inputs in;
  in.w = &w;
  in.seed = seed;
  in.shards = shards;
  const auto duration = sim::SimDuration::hours(w.sim_hours);
  switch (w.net) {
    case Net::kLimewire:
      in.lw = core::limewire_standard();
      in.lw.seed = seed;
      in.lw.crawl.duration = duration;
      in.lw.shards = shards;
      break;
    case Net::kOpenft:
      in.ft = core::openft_standard();
      in.ft.seed = seed;
      in.ft.crawl.duration = duration;
      break;
    case Net::kKad:
      in.kad = core::kad_standard();
      in.kad.seed = seed;
      in.kad.crawl.duration = duration;
      break;
  }
  return in;
}

std::uint64_t study_hash(const Inputs& in) {
  switch (in.w->net) {
    case Net::kLimewire: return core::config_hash(in.lw);
    case Net::kOpenft: return core::config_hash(in.ft);
    case Net::kKad: return core::config_hash(in.kad);
  }
  return 0;
}

/// One agents::build_*_population call on a fresh network (host seconds);
/// the population is torn down outside the timed region.
double time_setup(const Inputs& in) {
  sim::ShardingConfig sharding;
  sharding.shards = in.shards;
  sim::Network net(in.seed, sharding);
  auto timed = [](auto build) {
    auto start = Clock::now();
    auto pop = [&] {
      OBS_SPAN("bench.setup");
      return build();
    }();
    return since(start);
  };
  switch (in.w->net) {
    case Net::kLimewire:
      return timed([&] { return agents::build_gnutella_population(net, in.lw.population); });
    case Net::kOpenft:
      return timed([&] { return agents::build_openft_population(net, in.ft.population); });
    case Net::kKad:
      return timed([&] { return agents::build_kad_population(net, in.kad.population); });
  }
  return 0.0;
}

core::StudyResult run_study(const Inputs& in, crawler::RecordSink* sink) {
  OBS_SPAN("bench.study");
  switch (in.w->net) {
    case Net::kLimewire: return core::run_limewire_study(in.lw, sink);
    case Net::kOpenft: return core::run_openft_study(in.ft, sink);
    case Net::kKad: return core::run_kad_study(in.kad, sink);
  }
  return {};
}

/// The report exactly as the study CLIs assemble it before --json, timed
/// under `span`.
core::Report study_report(const Inputs& in, const core::StudyResult& r,
                          const char* span) {
  obs::ScopedSpan scoped(span);
  auto report = core::build_report(r.records, net_name(in.w->net));
  core::attach_fault_report(report, r.faults_enabled, r.fault_counters,
                            r.crawl_stats);
  if (in.w->net == Net::kKad) {
    core::attach_kad_coverage(report, r.records, r.metrics);
  }
  report.timeseries = r.timeseries;
  return report;
}

std::string report_json(const core::Report& report, const char* span) {
  obs::ScopedSpan scoped(span);
  std::ostringstream out;
  core::write_report_json(out, report);
  return std::move(out).str();
}

/// Forwards every record to the capture writer inside a benchmark span, so
/// the traced run sees the trace layer's share of the study.
class SpannedSink final : public crawler::RecordSink {
 public:
  explicit SpannedSink(crawler::RecordSink& inner) : inner_(inner) {}
  void on_record(const crawler::ResponseRecord& record) override {
    OBS_SPAN("bench.sink");
    inner_.on_record(record);
  }

 private:
  crawler::RecordSink& inner_;
};

// ---------------------------------------------------------------------------
// Checks and exact statistics
// ---------------------------------------------------------------------------

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
      std::cerr << "check failed: " << what << "\n";
    }
  }
};

/// The simulated statistics of one pass. Every entry is exact and must be
/// identical across passes, runs and engines for one seed.
using SimStats = std::map<std::string, double>;

constexpr const char* kCounters[] = {
    "gnutella.queries_received", "gnutella.hits_sent",
    "gnutella.recv_query",       "gnutella.dropped_duplicate",
    "net.connects_attempted",    "net.connects_failed",
    "openft.searches_handled",   "openft.results_sent",
    "openft.searches_forwarded", "kad.rpcs_sent",
    "kad.rpcs_failed",           "kad.lookups",
    "kad.stores_received",       "crawler.queries_sent",
    "crawler.responses_logged",  "crawler.downloads_started",
    "crawler.downloads_ok",      "scanner.scans",
    "scanner.matches",
};

double counter(const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& c : snapshot.counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  return 0.0;
}

SimStats sim_stats(const core::StudyResult& r, const core::Report& report,
                   const std::string& json) {
  SimStats s;
  s["sim.events"] = static_cast<double>(r.events_executed);
  s["net.messages_delivered"] = static_cast<double>(r.messages_delivered);
  s["net.bytes_delivered"] = static_cast<double>(r.bytes_delivered);
  s["records"] = static_cast<double>(r.records.size());
  for (const char* name : kCounters) s[name] = counter(r.metrics, name);
  s["e1.malicious_fraction"] = report.prevalence.malicious_fraction();
  for (const auto& eval : report.filter_evals) {
    if (eval.filter_name == "size-based") {
      s["e5.size_filter_detection"] = eval.detection_rate();
    }
  }
  s["report.json_bytes"] = static_cast<double>(json.size());
  return s;
}

/// "" when equal, else the first differing entry, for the failure message.
std::string stats_diff(const SimStats& a, const SimStats& b) {
  for (const auto& [name, value] : a) {
    auto it = b.find(name);
    if (it == b.end() || it->second != value) {
      return name + " " + obs::json_number(value) + " vs " +
             (it == b.end() ? std::string("missing") : obs::json_number(it->second));
    }
  }
  return a.size() == b.size() ? "" : "entry sets differ";
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// One pass: study (+ live capture), report, JSON, and replay on the capture
// workloads.
// ---------------------------------------------------------------------------

struct Pass {
  double study_s = 0.0;
  double total_s = 0.0;
  double events = 0.0;
  /// Kept out of `stats`: a trace summary embeds every metric name the
  /// process has registered so far, so the first capture in a process is a
  /// few bytes shorter than later ones (see README.md).
  double trace_bytes = 0.0;
  /// Host-speed normalization of this pass's times (see scale()).
  double scale = 1.0;
  SimStats stats;
  std::string json;
};

Pass run_pass(const Inputs& in, const fs::path& workdir, std::size_t replay_jobs,
              Checks& checks) {
  const Workload& w = *in.w;
  const fs::path capture = workdir / (w.capture == Capture::kDir
                                          ? "capture.p2ps"
                                          : "capture.p2pt");
  fs::remove_all(capture);

  Pass pass;
  auto start = Clock::now();
  std::unique_ptr<trace::StorageWriter> writer;
  std::unique_ptr<SpannedSink> sink;
  if (w.capture != Capture::kNone) {
    trace::TraceHeader header;
    header.network = net_name(w.net);
    header.config_hash = study_hash(in);
    header.seed = in.seed;
    header.crawl_duration_ms = sim::SimDuration::hours(w.sim_hours).count_ms();
    header.meta = {{"tool", "studybench"}, {"workload", w.name}};
    if (w.capture == Capture::kDir) {
      trace::SegmentWriterOptions options;
      options.window_ms = kSegmentWindowMs;
      writer = std::make_unique<trace::SegmentWriter>(capture.string(), header,
                                                      options);
    } else {
      writer = std::make_unique<trace::TraceWriter>(capture.string(), header);
    }
    checks.expect(writer->ok(), "capture writer opens");
    sink = std::make_unique<SpannedSink>(*writer);
  }

  core::StudyResult result = run_study(in, sink.get());
  pass.study_s = since(start);
  pass.events = static_cast<double>(result.events_executed);

  if (writer) {
    writer->write_summary(core::study_summary(result));
    {
      OBS_SPAN("bench.close");
      writer->close();
    }
    checks.expect(writer->ok(), "capture writer closes cleanly");
    checks.expect(writer->records_written() == result.records.size(),
                  "capture holds every record");
  }

  core::Report report = study_report(in, result, "bench.report");
  pass.json = report_json(report, "bench.json");
  checks.expect(report.records == result.records.size() && !pass.json.empty(),
                "live report covers every record");
  pass.stats = sim_stats(result, report, pass.json);

  if (w.capture != Capture::kNone) {
    std::string replayed_json;
    trace::ReadStats read;
    if (w.capture == Capture::kFile) {
      core::StudyResult replayed;
      bool loaded = false;
      {
        OBS_SPAN("bench.load");
        loaded = core::load_study_trace(capture.string(), replayed, study_hash(in));
      }
      checks.expect(loaded, "single-file trace loads without corruption");
      replayed_json = report_json(study_report(in, replayed, "bench.replay_report"),
                                  "bench.replay_json");
    } else {
      core::ReplayOptions options;
      options.jobs = replay_jobs;
      core::ReplayResult rr;
      {
        OBS_SPAN("bench.replay");
        rr = core::replay_segment_dir(capture.string(), options);
      }
      checks.expect(rr.ok, "segment directory replays: " + rr.error);
      replayed_json = report_json(rr.report, "bench.replay_json");
      read = rr.stats;
      checks.expect(rr.segments_total == writer->segments_written(),
                    "manifest lists every written segment");
    }
    pass.total_s = since(start);
    if (w.capture == Capture::kFile) {
      // load_study_trace returns only a flag; the file's own read statistics
      // are read again here, outside the timed region.
      read = trace::read_trace_file(capture.string()).stats;
    }
    checks.expect(read.clean(), "replay reports zero corrupt blocks and segments");
    checks.expect(read.records_read == writer->records_written(),
                  "replay reads every captured record");
    checks.expect(replayed_json == pass.json,
                  "replayed report JSON is byte-identical to the live one");
    pass.trace_bytes = static_cast<double>(writer->bytes_written());
    pass.stats["trace.records_written"] =
        static_cast<double>(writer->records_written());
    pass.stats["trace.segments_written"] =
        static_cast<double>(writer->segments_written());
    pass.stats["trace.records_read"] = static_cast<double>(read.records_read);
    pass.stats["trace.corrupt"] =
        static_cast<double>(read.blocks_corrupt + read.segments_corrupt);
  } else {
    pass.total_s = since(start);
  }
  fs::remove_all(capture);
  return pass;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Record output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string str(const std::string& s) { return "\"" + obs::json_escape(s) + "\""; }

void write_record(std::ostream& out, const Inputs& in, int trace, std::size_t nproc,
                  std::size_t check_shards, std::size_t replay_jobs,
                  std::size_t setups, std::size_t passes, const Checks& checks,
                  const SimStats& stats, const std::vector<Metric>& metrics,
                  const std::vector<Metric>& raw,
                  const studybench::SpanTable* spans) {
  const Workload& w = *in.w;
  out << "{\"workload\":" << str(w.name) << ",\"seed\":" << in.seed
      << ",\"trace\":" << trace;
  out << ",\"host\":{\"nproc\":" << nproc
      << ",\"build_type\":" << str(STUDYBENCH_BUILD_TYPE)
      << ",\"engine\":\"serial\",\"check_shards\":" << check_shards
      << ",\"replay_jobs\":" << replay_jobs
      << "}";
  out << ",\"inputs\":{\"network\":" << str(net_name(w.net))
      << ",\"preset\":\"standard\",\"sim_hours\":" << w.sim_hours
      << ",\"config_hash\":" << study_hash(in) << "}";
  out << ",\"setups\":" << setups << ",\"passes\":" << passes;
  out << ",\"checks\":{\"attempted\":" << checks.attempted
      << ",\"failed\":" << checks.failed << ",\"failures\":[";
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    out << (i ? "," : "") << str(checks.failures[i]);
  }
  out << "]},\"sim\":{";
  bool first = true;
  for (const auto& [name, value] : stats) {
    out << (first ? "" : ",") << str(name) << ":" << obs::json_number(value);
    first = false;
  }
  out << "}";
  for (const auto& [key, list] : {std::pair{"metrics", &metrics}, {"raw", &raw}}) {
    out << ",\"" << key << "\":{";
    first = true;
    for (const auto& m : *list) {
      out << (first ? "" : ",") << str(m.name) << ":{\"value\":"
          << obs::json_number(m.value) << ",\"unit\":" << str(m.unit) << "}";
      first = false;
    }
    out << "}";
  }
  if (spans != nullptr) {
    out << ",\"spans\":{";
    first = true;
    for (const auto& [name, s] : spans->by_name) {
      out << (first ? "" : ",") << str(name) << ":{\"count\":" << s.count
          << ",\"total_s\":" << obs::json_number(s.total_s)
          << ",\"self_s\":" << obs::json_number(s.self_s) << "}";
      first = false;
    }
    out << "}";
  }
  out << "}\n";
}

// ---------------------------------------------------------------------------
// Host-speed calibration
//
// On a shared host the same code runs up to ~2.5x slower for tens of seconds
// at a time, without showing as steal time: neighbours contend for the
// cores' sibling threads, the shared cache and memory bandwidth. A fixed
// calibration kernel with the simulator's profile (a discrete-event loop
// over a binary heap, per-node hash tables, small allocations) runs between
// timed passes. Each time is scaled by kProbeReferenceS over the mean of the
// kernel times before and after it, i.e. reported in seconds of a host on
// which the kernel takes kProbeReferenceS. The kernel is the benchmark's own
// code and runs in a child process of its own (this binary with --probe), so
// it shares no heap, allocator arena or thread with the study and a change
// to the program cannot move it. Raw host seconds go into the record too.
// ---------------------------------------------------------------------------

constexpr double kProbeReferenceS = 0.3;

/// A fixed discrete-event workload: events on a binary heap, per-node
/// duplicate tables, a small allocation and a hash per event.
class CalibrationKernel {
 public:
  CalibrationKernel() : neighbours_(kNodes), seen_(kNodes) {
    for (auto& n : neighbours_) {
      for (int i = 0; i < 6; ++i) n.push_back(static_cast<std::uint32_t>(draw() % kNodes));
    }
  }

  void run(std::size_t events) {
    for (std::size_t i = 0; i < events; ++i, ++handled_) {
      if (queue_.empty() || handled_ % 7 == 0) {
        queue_.push({now_ + 5, static_cast<std::uint32_t>(draw() % kNodes), 4, draw()});
      }
      Event e = queue_.top();
      queue_.pop();
      now_ = e.at;
      auto& table = seen_[e.node];
      if (!table.emplace(e.guid, e.node).second) continue;
      if (table.size() > 96) table.erase(table.begin());
      std::string payload(64 + (e.guid & 63), static_cast<char>('a' + e.guid % 26));
      for (char c : payload) acc_ = (acc_ ^ static_cast<unsigned char>(c)) * 1099511628211ull;
      if (e.ttl == 0) continue;
      for (std::uint32_t n : neighbours_[e.node]) {
        queue_.push({now_ + 1 + static_cast<std::int64_t>(acc_ % 50), n, e.ttl - 1, e.guid});
      }
    }
  }

  [[nodiscard]] std::uint64_t checksum() const { return acc_; }

 private:
  static constexpr std::uint32_t kNodes = 4096;
  struct Event {
    std::int64_t at;
    std::uint32_t node;
    std::uint32_t ttl;
    std::uint64_t guid;
    bool operator<(const Event& other) const { return at > other.at; }
  };

  std::uint64_t draw() {  // splitmix64, kept local so no library change moves it
    std::uint64_t z = (rng_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  std::uint64_t rng_ = 12345;
  std::uint64_t acc_ = 0;
  std::int64_t now_ = 0;
  std::size_t handled_ = 0;
  std::vector<std::vector<std::uint32_t>> neighbours_;
  std::vector<std::unordered_map<std::uint64_t, std::uint32_t>> seen_;
  std::priority_queue<Event> queue_;
};

/// --probe: one kernel run, set-up included; prints its seconds and the
/// checksum (which keeps the work from being optimized away).
int run_probe() {
  constexpr std::size_t kEvents = 300'000;
  auto start = Clock::now();
  CalibrationKernel kernel;
  kernel.run(kEvents);
  double seconds = since(start);
  std::printf("%.9f %llu\n", seconds,
              static_cast<unsigned long long>(kernel.checksum()));
  return 0;
}

/// Spawns this binary with --probe, waits for it, and returns its kernel
/// seconds.
double probe_seconds() {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("probe: pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  char arg0[] = "studybench";
  char arg1[] = "--probe";
  char* argv[] = {arg0, arg1, nullptr};
  pid_t pid = 0;
  int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buf[256];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof buf)) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  close(fds[0]);
  if (rc != 0) throw std::runtime_error("probe: spawn failed");
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("probe: waitpid failed");
  }
  double seconds = 0.0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      std::sscanf(out.c_str(), "%lf", &seconds) != 1 || !(seconds > 0.0)) {
    throw std::runtime_error("probe: calibration kernel failed");
  }
  return seconds;
}

double scale(double before, double after) {
  return 2.0 * kProbeReferenceS / (before + after);
}

// ---------------------------------------------------------------------------
// The two run modes
// ---------------------------------------------------------------------------

struct Timed {
  std::vector<double> setup_s;  // kSetupCalls per pass, normalized
  std::vector<double> raw_setup_s;
  std::vector<Pass> passes;
  std::vector<double> probe_s;
  /// Peak RSS after the warm-up pass: one whole pass, independent of how
  /// many timed passes the host's speed allows.
  double peak_rss_mib = 0.0;
};

/// --trace 0: an untimed warm-up pass, then timed passes, each preceded by
/// kSetupCalls set-up calls, until `seconds` have passed.
Timed timed_passes(const Inputs& in, const fs::path& workdir,
                   std::size_t replay_jobs, double seconds, Checks& checks,
                   Pass& reference) {
  Timed t;
  reference = run_pass(in, workdir, replay_jobs, checks);
  t.peak_rss_mib = peak_rss_mib();
  double before = probe_seconds();
  t.probe_s.push_back(before);
  auto start = Clock::now();
  while (t.passes.size() < kMinPasses || since(start) < seconds) {
    double setups[kSetupCalls];
    for (double& s : setups) s = time_setup(in);
    Pass pass = run_pass(in, workdir, replay_jobs, checks);
    double after = probe_seconds();
    t.probe_s.push_back(after);
    pass.scale = scale(before, after);
    std::fprintf(stderr, "pass %zu: study %.3f s (host %.3f s), kernel %.3f s\n",
                 t.passes.size() + 1, pass.study_s * pass.scale, pass.study_s,
                 after);
    for (double s : setups) {
      t.raw_setup_s.push_back(s);
      t.setup_s.push_back(s * pass.scale);
    }
    before = after;
    std::string diff = stats_diff(reference.stats, pass.stats);
    checks.expect(diff.empty(),
                  "simulated statistics repeat exactly across passes: " + diff);
    t.passes.push_back(std::move(pass));
  }
  return t;
}

std::vector<Metric> end_to_end(const Timed& t) {
  std::vector<double> study, total, eps;
  for (const auto& p : t.passes) {
    study.push_back(p.study_s * p.scale);
    total.push_back(p.total_s * p.scale);
    eps.push_back(p.events / (p.study_s * p.scale));
  }
  return {
      {"setup_s", median(t.setup_s), "s"},
      {"study_s", median(study), "s"},
      {"total_s", median(total), "s"},
      {"events_per_s", median(eps), "1/s"},
      {"peak_rss_mib", t.peak_rss_mib, "MiB"},
  };
}

/// Raw host seconds behind the normalized end-to-end figures.
std::vector<Metric> raw_end_to_end(const Timed& t) {
  std::vector<double> study, total;
  for (const auto& p : t.passes) {
    study.push_back(p.study_s);
    total.push_back(p.total_s);
  }
  return {
      {"setup_s", median(t.raw_setup_s), "s"},
      {"study_s", median(study), "s"},
      {"total_s", median(total), "s"},
      {"probe_s", median(t.probe_s), "s"},
  };
}

std::vector<Metric> per_layer(const studybench::SpanTable& t, const Pass& traced,
                              double overhead_ratio, std::uint64_t spans,
                              std::uint64_t dropped) {
  const SimStats& s = traced.stats;
  auto at = [&](const char* name) {
    auto it = s.find(name);
    return it == s.end() ? 0.0 : it->second;
  };
  double replay_records = at("trace.records_read");
  double replay_s = t.get("bench.load").total_s + t.get("bench.replay").total_s +
                    t.get("bench.replay_report").total_s +
                    t.get("bench.replay_json").total_s;
  return {
      {"gnutella.handle_query_self_s", t.get("gnutella.handle_query").self_s, "s"},
      {"gnutella.handle_query_n",
       static_cast<double>(t.get("gnutella.handle_query").count), "count"},
      {"gnutella.queries_received", at("gnutella.queries_received"), "count"},
      {"gnutella.hits_sent", at("gnutella.hits_sent"), "count"},
      {"gnutella.dup_ratio",
       ratio(at("gnutella.dropped_duplicate"), at("gnutella.recv_query")), "ratio"},
      {"core.setup_s", t.get("study.setup").total_s, "s"},
      {"core.run_s", t.get("study.run").total_s, "s"},
      {"core.run_self_s", t.get("study.run").self_s, "s"},
      {"core.finalize_s", t.get("study.finalize").total_s, "s"},
      {"sim.events", at("sim.events"), "count"},
      {"net.messages_delivered", at("net.messages_delivered"), "count"},
      {"net.bytes_delivered", at("net.bytes_delivered"), "bytes"},
      {"net.connect_fail_ratio",
       ratio(at("net.connects_failed"), at("net.connects_attempted")), "ratio"},
      {"openft.handle_search_self_s", t.get("openft.handle_search").self_s, "s"},
      {"openft.searches_handled", at("openft.searches_handled"), "count"},
      {"openft.results_sent", at("openft.results_sent"), "count"},
      {"openft.searches_forwarded", at("openft.searches_forwarded"), "count"},
      {"kad.handle_request_self_s", t.get("kad.handle_request").self_s, "s"},
      {"kad.rpcs_sent", at("kad.rpcs_sent"), "count"},
      {"kad.rpc_fail_ratio", ratio(at("kad.rpcs_failed"), at("kad.rpcs_sent")),
       "ratio"},
      {"kad.lookups", at("kad.lookups"), "count"},
      {"kad.stores_received", at("kad.stores_received"), "count"},
      {"crawler.query_cycle_self_s", t.get("crawler.query_cycle").self_s, "s"},
      {"crawler.queries_sent", at("crawler.queries_sent"), "count"},
      {"crawler.responses_logged", at("crawler.responses_logged"), "count"},
      {"crawler.download_ok_ratio",
       ratio(at("crawler.downloads_ok"), at("crawler.downloads_started")), "ratio"},
      {"scanner.scan_self_s", t.get("scanner.scan").self_s, "s"},
      {"scanner.scans", at("scanner.scans"), "count"},
      {"scanner.match_ratio", ratio(at("scanner.matches"), at("scanner.scans")),
       "ratio"},
      {"files.corpus_build_s", t.under("bench.setup", "corpus.build").total_s, "s"},
      {"report.build_s", t.get("bench.report").total_s, "s"},
      {"report.json_s", t.get("bench.json").total_s, "s"},
      {"report.json_bytes", at("report.json_bytes"), "bytes"},
      {"trace.sink_s", t.get("bench.sink").total_s, "s"},
      {"trace.close_s", t.get("bench.close").total_s, "s"},
      {"trace.bytes_written", traced.trace_bytes, "bytes"},
      {"trace.records_written", at("trace.records_written"), "count"},
      {"trace.segments_written", at("trace.segments_written"), "count"},
      {"trace.replay_s", replay_s, "s"},
      {"trace.records_read", replay_records, "count"},
      {"trace.replay_records_per_s", ratio(replay_records, replay_s), "1/s"},
      {"trace.corrupt", at("trace.corrupt"), "count"},
      {"obs.trace_overhead_ratio", overhead_ratio, "ratio"},
      {"obs.spans", static_cast<double>(spans), "count"},
      {"obs.spans_dropped", static_cast<double>(dropped), "count"},
  };
}

struct Traced {
  std::vector<Metric> metrics;
  studybench::SpanTable spans;
};

/// --trace 1: a warm-up pass, then kOverheadPairs pairs of one untraced
/// pass and one set-up call plus one pass under the span profiler, every
/// pass bracketed by the calibration kernel. The overhead ratio is the
/// median over the pairs; the span table is the last traced pass's.
Traced traced_passes(const Inputs& in, const fs::path& workdir,
                     std::size_t replay_jobs, Checks& checks, Pass& reference) {
  reference = run_pass(in, workdir, replay_jobs, checks);
  auto& profiler = obs::SpanProfiler::global();
  std::vector<double> overhead;
  Pass traced;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  double before = probe_seconds();
  for (std::size_t i = 0; i < kOverheadPairs; ++i) {
    Pass untraced = run_pass(in, workdir, replay_jobs, checks);
    double mid = probe_seconds();
    profiler.reset();
    // Per-thread bound far above the largest pass (under 1M spans for a
    // simulated KAD day); the check below fails the run if any are dropped.
    profiler.enable(std::size_t{1} << 27);
    (void)time_setup(in);
    traced = run_pass(in, workdir, replay_jobs, checks);
    profiler.disable();
    double after = probe_seconds();
    overhead.push_back(ratio(traced.total_s * scale(mid, after),
                             untraced.total_s * scale(before, mid)));
    before = after;
    recorded = profiler.total_spans();
    dropped = profiler.total_dropped();
    checks.expect(dropped == 0, "traced run drops no spans");
    for (const Pass* pass : {&untraced, &traced}) {
      std::string diff = stats_diff(reference.stats, pass->stats);
      checks.expect(diff.empty(),
                    "tracing leaves the simulated statistics unchanged: " + diff);
    }
  }
  std::ostringstream chrome;
  profiler.write_chrome_trace(chrome);
  profiler.reset();
  Traced t;
  t.spans = studybench::aggregate_chrome_trace(std::move(chrome).str());
  checks.expect(t.spans.spans == recorded, "every recorded span aggregated");
  t.metrics = per_layer(t.spans, traced, median(overhead), recorded, dropped);
  return t;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0 &&
         (args.trace == 0 || args.trace == 1);
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const auto& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t check_shards = w->shard_check ? std::min(kMaxShards, nproc) : 0;
  const std::size_t replay_jobs =
      w->capture == Capture::kDir ? std::min(kMaxReplayJobs, nproc) : 0;
  const Inputs in = make_inputs(*w, args.seed, 0);

  const fs::path workdir =
      fs::path(".bench_build/work") / (std::string(w->name) + "-" + std::to_string(getpid()));
  fs::create_directories(workdir);

  Checks checks;
  Pass reference;
  std::size_t setups = 0, passes = 0;
  std::vector<Metric> metrics, raw;
  std::optional<studybench::SpanTable> spans;
  if (args.trace == 0) {
    Timed t = timed_passes(in, workdir, replay_jobs, args.seconds, checks, reference);
    metrics = end_to_end(t);
    raw = raw_end_to_end(t);
    setups = t.setup_s.size();
    passes = t.passes.size();
  } else {
    Traced t = traced_passes(in, workdir, replay_jobs, checks, reference);
    metrics = std::move(t.metrics);
    spans = std::move(t.spans);
    setups = kOverheadPairs;
    passes = 2 * kOverheadPairs;
  }

  if (w->shard_check) {
    // The sharded engine's byte-identity contract: the same seed gives the
    // same report and statistics at 1 shard and at check_shards shards.
    Pass one = run_pass(make_inputs(*w, args.seed, 1), workdir, replay_jobs, checks);
    Pass many =
        run_pass(make_inputs(*w, args.seed, check_shards), workdir, replay_jobs, checks);
    checks.expect(many.json == one.json,
                  "sharded report is byte-identical to the one at 1 shard");
    std::string diff = stats_diff(one.stats, many.stats);
    checks.expect(diff.empty(), "sharded statistics equal those at 1 shard: " + diff);
  }
  fs::remove_all(workdir);

  write_record(std::cout, in, args.trace, nproc, check_shards, replay_jobs, setups,
               passes, checks, reference.stats, metrics, raw,
               spans ? &*spans : nullptr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--probe") return run_probe();
#ifdef P2P_OBS_DISABLED
  std::cerr << "studybench: built with P2P_OBS_DISABLED; refusing to measure\n";
  return 3;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::cerr << "studybench: sanitizer build; refusing to measure\n";
  return 3;
#endif
#ifndef NDEBUG
  std::cerr << "studybench: assertions enabled (unoptimized build); refusing to measure\n";
  return 3;
#endif
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: studybench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "studybench: " << e.what() << "\n";
    return 1;
  }
}
