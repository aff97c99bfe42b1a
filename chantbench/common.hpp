// common.hpp — the pieces every chantbench workload shares: seeded
// input generation, the in-memory span log of a traced run, per-layer
// counter snapshots, and the result of one measured round.
//
// The benchmark reaches lwt, nx and chant only through their public
// headers; everything measured here is timed around the calls the
// benchmark itself makes into those layers.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "chant/chant.hpp"
#include "harness/workload.hpp"
#include "lwt/lwt.hpp"
#include "nx/machine.hpp"

namespace cb {

/// CPUs this process may run on (what `nproc` prints).
unsigned host_nproc();

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: every input a workload feeds the program comes from here,
/// so one --seed reproduces the same sizes, alphas and op mixes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Seed of one (run seed, round, stream) triple: rounds of a run see
/// different but reproducible inputs.
inline std::uint64_t derive_seed(std::uint64_t seed, int round, int stream) {
  Rng r(seed ^ (0xA24BAED4963EE407ull * static_cast<std::uint64_t>(round + 1)) ^
        (0x9FB21C651E98DF25ull * static_cast<std::uint64_t>(stream + 1)));
  return r.next();
}

// ---- spans (traced run only) ----

/// Span names, one per boundary the benchmark times. The layer of each
/// is the prefix before the dot; "op" is the workload op itself.
enum class SpanKind : std::uint8_t {
  Op,
  ChantSend,
  ChantRecv,
  CallInline,
  CallTail,
  RemoteCreate,
  RemoteJoin,
  NxExchange,
  NxCsend,
  NxCrecv,
  SpawnJoin,
  MutexLock,
  Handoff,
};

const char* span_name(SpanKind k);
const char* span_layer(SpanKind k);

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t op = 0;        ///< op id shared by an op's spans
  std::uint32_t parent = 0;    ///< 1-based index in the same log, 0 = root
  SpanKind kind = SpanKind::Op;
};

/// One fiber's spans. Owned by that fiber's Lane, so recording takes no
/// lock and never touches thread-local storage (fibers may migrate
/// between OS threads on a multi-worker scheduler). Storage is reserved
/// up front; once it is full, later spans are dropped (id 0).
class SpanLog {
 public:
  void reserve(std::size_t cap) { spans_.reserve(cap); }
  std::uint32_t open(SpanKind k, std::uint64_t op, std::uint32_t parent) {
    if (spans_.size() == spans_.capacity()) return 0;
    spans_.push_back(Span{now_ns(), 0, op, parent, k});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void close(std::uint32_t id) {
    if (id != 0) spans_[id - 1].end_ns = now_ns();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null log (untraced run) records nothing.
class Scope {
 public:
  Scope(SpanLog* log, SpanKind k, std::uint64_t op, std::uint32_t parent = 0)
      : log_(log), id_(log != nullptr ? log->open(k, op, parent) : 0) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

// ---- per-layer counters ----

/// Every counter the public stats accessors expose that a per-layer
/// metric reads, as an index into Counts.
enum Count : std::size_t {
  // lwt (SchedulerStats)
  kFullSwitches, kWqPollTests, kPartialPollTests, kIdleSpins, kSteals,
  kInjections, kParks, kWaitingSamples, kWaitingSum,
  // nx (Endpoint counters)
  kMsgtests, kMsgtestFailed, kSends, kUnexpected, kWildcardScans,
  kDrainSkipped, kBytesCopied, kTempAllocs,
  // chant.rsr (BufferPool / RsrStats)
  kPoolFresh, kRsrRetries, kDeadlineTimeouts,
  kNumCounts,
};
using Counts = std::array<std::uint64_t, kNumCounts>;

/// Point-in-time values of one process's counters.
Counts snapshot(const lwt::SchedulerStats& sched);
Counts snapshot(chant::Runtime& rt);
/// Adds after - before to `into`, counter by counter.
void add_delta(Counts& into, const Counts& before, const Counts& after);

// ---- results ----

/// Latency samples and spans a round keeps, split evenly over its lanes.
/// Fixed, so neither memory nor max_rss_MB grows with throughput.
inline constexpr std::size_t kRoundSamples = std::size_t{1} << 18;
inline constexpr std::size_t kRoundSpans = std::size_t{1} << 17;

/// One op stream: a fiber (or a process's main thread) issuing ops.
struct Lane {
  /// Records a timed op's latency into a uniform reservoir sample.
  void record(double us) {
    ++timed_ops;
    if (op_us.size() < op_us.capacity()) {
      op_us.push_back(us);
    } else if (const std::uint64_t j = rng.below(timed_ops);
               j < op_us.size()) {
      op_us[j] = us;
    }
  }

  std::vector<double> op_us;     ///< sampled timed-op latencies
  std::uint64_t timed_ops = 0;   ///< ops completed in the timed phase
  std::uint64_t attempted = 0;   ///< ops issued, warm-up included
  std::uint64_t failed = 0;      ///< non-Ok status or failed output check
  SpanLog log;
  Rng rng{1};
  int pid = 0;  ///< process (trace-event pid)
  int tid = 0;  ///< lane index within the process (trace-event tid)
};

/// One construction-to-teardown pass of a workload.
struct Round {
  double setup_s = 0;   ///< construction + warm-up, up to the first timed op
  double timed_s = 0;   ///< wall time of the timed phase
  std::vector<Lane> lanes;
  Counts counts{};  ///< timed-phase deltas, summed over processes
  std::uint64_t extra_failed = 0;  ///< failures found only at the end
};

/// What a workload reports about its configuration (the host stamp).
struct Stamp {
  std::string transport;
  std::string policy;
  unsigned workers = 1;
  int pes = 0;
};

struct Params {
  std::uint64_t seed = 1;
  int round = 0;
  double seconds = 1.0;   ///< timed phase of this round
  bool traced = false;
  bool corrupt = false;   ///< rsr_mix: register the corrupting handler
};

/// Sizes r.lanes and reserves each lane's sample and span storage.
inline void init_lanes(Round& r, std::size_t n, const Params& p) {
  r.lanes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    Lane& lane = r.lanes[i];
    // Touch the whole reservoir now, so resident memory does not depend
    // on how many ops the round completes.
    lane.op_us.assign(kRoundSamples / n, 0.0);
    lane.op_us.clear();
    if (p.traced) lane.log.reserve(kRoundSpans / n);
    lane.rng = Rng(derive_seed(p.seed, p.round, 1000 + static_cast<int>(i)));
    lane.tid = static_cast<int>(i);
  }
}

// Workloads (workloads.cpp). Each builds its inputs from p.seed before
// constructing the system under test.
Round run_pingpong_shm(const Params& p, Stamp* stamp);
/// The layer ladder of pingpong_shm: the same seeded sizes through raw
/// nx csend/crecv on the same shmring machine shape.
Round run_pingpong_nx(const Params& p);
Round run_rsr_mix(const Params& p, Stamp* stamp);
Round run_fig9_wq(const Params& p, Stamp* stamp);
Round run_mn_sync(const Params& p, Stamp* stamp);

}  // namespace cb
