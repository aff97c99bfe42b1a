// main.cpp — chantbench: runs one workload for --seconds and prints its
// metrics as one JSON line on stdout.
//
//   chantbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-out <path>] [--corrupt-replies]
//
// --trace 0 reports the end-to-end metrics. The run is split into
// kRounds rounds; each round constructs the system, warms it up and
// times ops for seconds/kRounds. Latencies, rates and set-up time are
// medians of per-round values; max_rss_MB is the peak of the whole run.
//
// --trace 1 reports the per-layer metrics. Half of the rounds run
// untraced and half record spans around every call the benchmark makes
// into a layer (pingpong_shm adds a third part: the same sizes through
// raw nx). Counters are deltas of the public stats accessors over each
// timed phase. The spans are written as Chrome trace-event JSON.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

#ifndef CHANTBENCH_BUILD_TYPE
#define CHANTBENCH_BUILD_TYPE "unknown"
#endif

namespace cb {

unsigned host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace cb

namespace {

using namespace cb;

struct Workload {
  const char* name;
  Round (*run)(const Params&, Stamp*);
  bool nx_ladder;  ///< traced run also replays the sizes through raw nx
};

constexpr Workload kWorkloads[] = {
    {"pingpong_shm", &run_pingpong_shm, true},
    {"rsr_mix", &run_rsr_mix, false},
    {"fig9_wq", &run_fig9_wq, false},
    {"mn_sync", &run_mn_sync, false},
};

/// Rounds per run: each is one set-up, and more of them make the
/// per-round medians steadier.
constexpr int kRounds = 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool corrupt = false;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--corrupt-replies") {
      a->corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (!(a->seconds > 0 && a->seconds <= 3600)) return false;
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
      if (!a->trace && std::strcmp(v, "0") != 0) return false;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !a->workload.empty();
}

// ---- statistics ----

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const auto n = static_cast<double>(v.size());
  const auto k = static_cast<std::size_t>(
      std::clamp(std::ceil(q * n) - 1, 0.0, n - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// A p99 needs at least this many samples, so ten lie beyond it.
constexpr std::size_t kP99MinSamples = 1000;

struct RoundSummary {
  double p50 = 0;
  double p99 = NAN;  ///< NaN when the round had too few samples
  double ops_per_s = 0;
  double setup_s = 0;
  std::size_t samples = 0;
};

std::vector<double> op_samples(const Round& r) {
  std::vector<double> all;
  for (const Lane& l : r.lanes) all.insert(all.end(), l.op_us.begin(), l.op_us.end());
  return all;
}

std::uint64_t timed_ops(const Round& r) {
  std::uint64_t n = 0;
  for (const Lane& l : r.lanes) n += l.timed_ops;
  return n;
}

RoundSummary summarize(const Round& r) {
  RoundSummary s;
  const std::vector<double> all = op_samples(r);
  s.samples = all.size();
  s.p50 = percentile(all, 0.50);
  if (all.size() >= kP99MinSamples) s.p99 = percentile(all, 0.99);
  s.ops_per_s =
      r.timed_s > 0 ? static_cast<double>(timed_ops(r)) / r.timed_s : 0;
  s.setup_s = r.setup_s;
  return s;
}

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const Round& r) {
    std::uint64_t f = r.extra_failed;
    std::uint64_t a = 0;
    for (const Lane& l : r.lanes) {
      a += l.attempted;
      f += l.failed;
    }
    attempted += a;
    failed += std::min(f, a);
  }
};

double max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- JSON ----

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

class JsonObject {
 public:
  JsonObject& add(const std::string& k, const std::string& raw) {
    body_ += (body_.empty() ? "" : ",") + str(k) + ":" + raw;
    return *this;
  }
  JsonObject& metric(const std::string& k, double v, const char* unit) {
    return add(k, "{\"value\":" + num(v) + ",\"unit\":" + str(unit) + "}");
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string host_json(const Args& a, const Stamp& st, int rounds,
                      double round_s) {
  JsonObject h;
  h.add("nproc", num(host_nproc()))
      .add("build_type", str(CHANTBENCH_BUILD_TYPE))
      .add("compiler", str(__VERSION__))
      .add("transport", str(st.transport))
      .add("workers", num(st.workers))
      .add("policy", str(st.policy))
      .add("pes", num(st.pes))
      .add("seed", std::to_string(a.seed))
      .add("seconds", num(a.seconds))
      .add("rounds", num(rounds))
      .add("round_seconds", num(round_s));
  return h.text();
}

// ---- traced run ----

struct TracedPhase {
  const char* name;
  std::vector<Round> rounds;
};

/// Writes the phases' spans as Chrome trace-event JSON ("X" events;
/// pid = phase/round/process, tid = lane). At most `cap` spans are
/// written, split evenly over phases and lanes.
bool write_trace(const std::string& path, std::span<const TracedPhase> ph,
                 const std::string& host, std::size_t cap) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t base = ~std::uint64_t{0};
  for (const TracedPhase& p : ph) {
    for (const Round& r : p.rounds) {
      for (const Lane& l : r.lanes) {
        if (!l.log.spans().empty()) {
          base = std::min(base, l.log.spans().front().start_ns);
        }
      }
    }
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":%s,"
               "\"traceEvents\":[", host.c_str());
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputc(',', f);
    first = false;
  };
  for (std::size_t pi = 0; pi < ph.size(); ++pi) {
    for (std::size_t ri = 0; ri < ph[pi].rounds.size(); ++ri) {
      const Round& r = ph[pi].rounds[ri];
      const std::size_t lane_cap =
          cap / ph.size() / ph[pi].rounds.size() / std::max<std::size_t>(1, r.lanes.size());
      for (const Lane& l : r.lanes) {
        const int pid = static_cast<int>(pi * 1000 + ri * 10) + l.pid;
        sep();
        std::fprintf(f, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                     "\"args\":{\"name\":\"%s round %zu pe %d\"}}",
                     pid, ph[pi].name, ri, l.pid);
        const std::vector<Span>& spans = l.log.spans();
        for (std::size_t i = 0; i < spans.size() && i < lane_cap; ++i) {
          const Span& s = spans[i];
          if (s.end_ns == 0) continue;
          sep();
          std::fprintf(
              f,
              "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
              "\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"op\":%llu,"
              "\"id\":%zu,\"parent\":%u}}",
              span_name(s.kind), span_layer(s.kind),
              static_cast<double>(s.start_ns - base) / 1e3,
              static_cast<double>(s.end_ns - s.start_ns) / 1e3, pid, l.tid,
              static_cast<unsigned long long>(s.op), i + 1, s.parent);
        }
      }
    }
  }
  std::fprintf(f, "]}\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

/// Span durations (µs) of one kind, pooled over rounds and lanes.
std::vector<double> span_us(const std::vector<Round>& rounds, SpanKind k) {
  std::vector<double> out;
  for (const Round& r : rounds) {
    for (const Lane& l : r.lanes) {
      for (const Span& s : l.log.spans()) {
        if (s.kind == k && s.end_ns != 0) {
          out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
        }
      }
    }
  }
  return out;
}

double ratio(double num_, double den) { return den > 0 ? num_ / den : 0; }

/// The per-layer metrics (README.md has the "should move / flat on"
/// table). A latency metric whose call a workload never makes reads 0.
void per_layer(JsonObject& m, JsonObject& samples,
               const std::vector<Round>& untraced,
               const std::vector<Round>& traced,
               const std::vector<Round>& nx_rounds) {
  Counts c{};
  std::uint64_t ops = 0;
  for (const Round& r : traced) {
    add_delta(c, Counts{}, r.counts);
    ops += timed_ops(r);
  }
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto per_op = [&](Count k) { return ratio(u(c[k]), u(ops)); };
  m.metric("lwt.full_switches_per_op", per_op(kFullSwitches), "count/op")
      .metric("lwt.wq_poll_tests_per_op", per_op(kWqPollTests), "count/op")
      .metric("lwt.avg_waiting",
              ratio(u(c[kWaitingSum]), u(c[kWaitingSamples])), "threads")
      .metric("lwt.partial_poll_tests_per_op", per_op(kPartialPollTests),
              "count/op")
      .metric("lwt.idle_spins_per_op", per_op(kIdleSpins), "count/op")
      .metric("lwt.steals_per_op", per_op(kSteals), "count/op")
      .metric("lwt.injections_per_op", per_op(kInjections), "count/op")
      .metric("lwt.parks_per_op", per_op(kParks), "count/op");

  const auto lat = [&](const char* name, const std::vector<Round>& rs,
                       SpanKind k, bool p99) {
    const std::vector<double> v = span_us(rs, k);
    const std::string base = name;
    m.metric(base + "_us_p50", percentile(v, 0.50), "us");
    if (p99) m.metric(base + "_us_p99", percentile(v, 0.99), "us");
    samples.add(base, num(static_cast<double>(v.size())));
  };
  lat("lwt.spawn_join", traced, SpanKind::SpawnJoin, true);
  lat("lwt.mutex_lock", traced, SpanKind::MutexLock, true);
  lat("lwt.handoff", traced, SpanKind::Handoff, false);
  lat("nx.rt", nx_rounds, SpanKind::NxExchange, true);

  m.metric("nx.msgtest_per_op", per_op(kMsgtests), "count/op")
      .metric("nx.msgtest_useful_ratio",
              ratio(u(c[kMsgtests] - c[kMsgtestFailed]), u(c[kMsgtests])),
              "ratio")
      .metric("nx.unexpected_ratio", ratio(u(c[kUnexpected]), u(c[kSends])),
              "ratio")
      .metric("nx.wildcard_scans_per_op", per_op(kWildcardScans), "count/op")
      .metric("nx.drain_skipped_per_op", per_op(kDrainSkipped), "count/op")
      .metric("nx.bytes_copied_per_op", per_op(kBytesCopied), "B/op")
      .metric("nx.temp_allocs_per_op", per_op(kTempAllocs), "count/op");

  lat("chant.send", traced, SpanKind::ChantSend, false);
  lat("chant.recv", traced, SpanKind::ChantRecv, true);
  // Same sizes, same transport, same instrumentation depth (an op span
  // with two children) on both sides of the difference.
  const double chant_x = percentile(span_us(traced, SpanKind::Op), 0.50);
  const std::vector<double> nx_x = span_us(nx_rounds, SpanKind::NxExchange);
  m.metric("chant.p2p_overhead_us_p50",
           nx_x.empty() ? 0 : chant_x - percentile(nx_x, 0.50), "us");
  lat("chant.call_inline", traced, SpanKind::CallInline, true);
  lat("chant.call_tail", traced, SpanKind::CallTail, true);
  m.metric("chant.pool_fresh_per_op", per_op(kPoolFresh), "count/op")
      .metric("chant.rsr_retries_per_op", per_op(kRsrRetries), "count/op")
      .metric("chant.deadline_timeouts_per_op", per_op(kDeadlineTimeouts),
              "count/op");
  lat("chant.remote_create", traced, SpanKind::RemoteCreate, true);
  lat("chant.remote_join", traced, SpanKind::RemoteJoin, false);

  std::vector<double> untraced_p50;
  for (const Round& r : untraced) untraced_p50.push_back(summarize(r).p50);
  m.metric("trace.overhead_ratio", ratio(chant_x, median(untraced_p50)),
           "ratio");
  samples.add("ops", num(static_cast<double>(ops)));
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: chantbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> "
                 "[--trace-out <path>] [--corrupt-replies]\n");
    return 2;
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (a.workload == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "chantbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }

  Stamp stamp;
  Totals totals;
  JsonObject metrics;
  JsonObject samples;
  int total_rounds = kRounds;
  double round_s = a.seconds / kRounds;
  std::string host;
  if (!a.trace) {
    std::vector<double> p50, p99, rate, setup;
    std::size_t min_samples = ~std::size_t{0};
    for (int i = 0; i < kRounds; ++i) {
      const Round r = wl->run(Params{a.seed, i, round_s, false, a.corrupt},
                              &stamp);
      totals.add(r);
      const RoundSummary s = summarize(r);
      p50.push_back(s.p50);
      if (!std::isnan(s.p99)) p99.push_back(s.p99);
      rate.push_back(s.ops_per_s);
      setup.push_back(s.setup_s);
      min_samples = std::min(min_samples, s.samples);
    }
    metrics.metric("op_us_p50", median(p50), "us");
    // With no round long enough for a p99 the metric is left out, so the
    // run reads as missing it rather than as a p99 of 0.
    if (!p99.empty()) metrics.metric("op_us_p99", median(p99), "us");
    metrics.metric("ops_per_s", median(rate), "ops/s")
        .metric("setup_s", median(setup), "s")
        .metric("max_rss_MB", max_rss_mb(), "MB");
    samples.add("op_us_per_round_min", num(static_cast<double>(min_samples)))
        .add("op_us_p99_rounds", num(static_cast<double>(p99.size())));
    host = host_json(a, stamp, total_rounds, round_s);
  } else {
    const int per_phase = kRounds / 2;
    std::vector<TracedPhase> phases{{"untraced", {}}, {"traced", {}}};
    if (wl->nx_ladder) phases.push_back({"nx", {}});
    total_rounds = per_phase * static_cast<int>(phases.size());
    round_s = a.seconds / total_rounds;
    for (int i = 0; i < per_phase; ++i) {
      phases[0].rounds.push_back(
          wl->run(Params{a.seed, i, round_s, false, a.corrupt}, &stamp));
      phases[1].rounds.push_back(
          wl->run(Params{a.seed, i, round_s, true, a.corrupt}, &stamp));
      if (wl->nx_ladder) {
        phases[2].rounds.push_back(
            run_pingpong_nx(Params{a.seed, i, round_s, true, a.corrupt}));
      }
    }
    for (const TracedPhase& p : phases) {
      for (const Round& r : p.rounds) totals.add(r);
    }
    static const std::vector<Round> kNone;
    per_layer(metrics, samples, phases[0].rounds, phases[1].rounds,
              wl->nx_ladder ? phases[2].rounds : kNone);
    host = host_json(a, stamp, total_rounds, round_s);
    if (!a.trace_out.empty() &&
        // phases[0] is untraced: it has no spans.
        !write_trace(a.trace_out, std::span(phases).subspan(1), host,
                     100'000)) {
      std::fprintf(stderr, "chantbench: cannot write %s\n",
                   a.trace_out.c_str());
      return 1;
    }
  }

  metrics.metric("failed_ratio",
                 ratio(static_cast<double>(totals.failed),
                       static_cast<double>(totals.attempted)),
                 "ratio");
  JsonObject out;
  out.add("workload", str(wl->name))
      .add("trace", a.trace ? "1" : "0")
      .add("host", host)
      .add("attempted", std::to_string(totals.attempted))
      .add("failed", std::to_string(totals.failed))
      .add("samples", samples.text())
      .add("metrics", metrics.text());
  if (a.trace && !a.trace_out.empty()) out.add("trace_file", str(a.trace_out));
  std::printf("%s\n", out.text().c_str());
  return 0;
}
