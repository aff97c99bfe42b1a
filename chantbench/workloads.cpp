// workloads.cpp — the four chantbench workloads (see README.md for why
// each was chosen) plus the raw-nx ladder of pingpong_shm.
//
// Every workload is a closed loop: an op is issued only after the
// previous op of the same lane completed. Each round builds its inputs
// from the seed, constructs the system (setup), warms it up with a fixed
// number of ops (still setup), then issues ops until the round's timed
// phase is over. Every op's output is checked.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "common.hpp"

namespace cb {

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::Op: return "op";
    case SpanKind::ChantSend: return "chant.send";
    case SpanKind::ChantRecv: return "chant.recv";
    case SpanKind::CallInline: return "chant.call_inline";
    case SpanKind::CallTail: return "chant.call_tail";
    case SpanKind::RemoteCreate: return "chant.remote_create";
    case SpanKind::RemoteJoin: return "chant.remote_join";
    case SpanKind::NxExchange: return "nx.exchange";
    case SpanKind::NxCsend: return "nx.csend";
    case SpanKind::NxCrecv: return "nx.crecv";
    case SpanKind::SpawnJoin: return "lwt.spawn_join";
    case SpanKind::MutexLock: return "lwt.mutex_lock";
    case SpanKind::Handoff: return "lwt.handoff";
  }
  return "?";
}

const char* span_layer(SpanKind k) {
  switch (k) {
    case SpanKind::Op: return "bench";
    case SpanKind::ChantSend:
    case SpanKind::ChantRecv: return "chant.p2p";
    case SpanKind::CallInline:
    case SpanKind::CallTail: return "chant.rsr";
    case SpanKind::RemoteCreate:
    case SpanKind::RemoteJoin: return "chant.remote";
    case SpanKind::NxExchange:
    case SpanKind::NxCsend:
    case SpanKind::NxCrecv: return "nx";
    case SpanKind::SpawnJoin:
    case SpanKind::MutexLock:
    case SpanKind::Handoff: return "lwt";
  }
  return "?";
}

Counts snapshot(const lwt::SchedulerStats& sched) {
  Counts c{};
  c[kFullSwitches] = sched.full_switches;
  c[kWqPollTests] = sched.wq_poll_tests;
  c[kPartialPollTests] = sched.partial_poll_tests;
  c[kIdleSpins] = sched.idle_spins;
  c[kSteals] = sched.steals;
  c[kInjections] = sched.injections;
  c[kParks] = sched.parks;
  c[kWaitingSamples] = sched.waiting_samples;
  c[kWaitingSum] = sched.waiting_sum;
  return c;
}

Counts snapshot(chant::Runtime& rt) {
  Counts c = snapshot(rt.sched_stats());
  const nx::Counters& n = rt.net_counters();
  c[kMsgtests] = n.msgtest_calls.load() + n.testany_calls.load();
  c[kMsgtestFailed] = n.msgtest_failed.load();
  c[kSends] = n.sends.load();
  c[kUnexpected] = n.unexpected_eager.load() + n.unexpected_rndv.load();
  c[kWildcardScans] = n.wildcard_scans.load();
  c[kDrainSkipped] = n.drain_skipped.load();
  c[kBytesCopied] = n.bytes_copied.load();
  c[kTempAllocs] = n.temp_allocs.load();
  c[kPoolFresh] = rt.buffer_pool().stats().fresh;
  c[kRsrRetries] = rt.rsr_stats().retries_sent;
  c[kDeadlineTimeouts] = rt.rsr_stats().deadline_timeouts;
  return c;
}

void add_delta(Counts& into, const Counts& before, const Counts& after) {
  for (std::size_t i = 0; i < kNumCounts; ++i) into[i] += after[i] - before[i];
}

namespace {

/// Input tables are this long and indexed cyclically by op number.
constexpr std::size_t kSeqLen = 4096;
constexpr int kTagData = 1;

double us_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) / 1e3;
}

double s_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

std::uint64_t seconds_ns(double s) {
  return static_cast<std::uint64_t>(s * 1e9);
}

std::vector<std::uint8_t> make_pattern(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

/// Payload of op i: a window into the seeded pattern, so consecutive
/// ops carry different bytes without refilling a buffer.
const std::uint8_t* payload(const std::vector<std::uint8_t>& pattern,
                            std::uint64_t i) {
  return pattern.data() + (i * 61) % kSeqLen;
}

void stamp_world(chant::World& w, const chant::World::Config& cfg,
                 Stamp* stamp) {
  stamp->transport = w.machine().config().transport_spec.to_string();
  stamp->policy = chant::to_string(cfg.rt.policy);
  stamp->workers = cfg.rt.workers;
  stamp->pes = cfg.pes;
}

// ---------------------------------------------------------------- pingpong

/// The paper's Table 2 sizes (1-16 KiB) plus 16 B and 64 KiB, the last
/// above the 16 KiB eager threshold (rendezvous). Drawn with equal
/// weights: the paper measures each size alone and no measured traffic
/// mix exists. With an odd number of sizes the median op falls inside
/// one size class instead of on the edge between two.
constexpr std::size_t kPingSizes[] = {16,   1024,  2048, 4096,
                                      8192, 16384, 65536};
constexpr std::size_t kPingMax = 65536;
/// The stop message. No exchange size is 1 byte.
constexpr std::size_t kStopLen = 1;
constexpr int kPingWarm = 200;

struct PingInputs {
  std::vector<std::uint32_t> sizes;
  std::vector<std::uint8_t> pattern;
};

PingInputs ping_inputs(const Params& p) {
  PingInputs in;
  Rng rng(derive_seed(p.seed, p.round, 0));
  in.sizes.resize(kSeqLen);
  for (auto& s : in.sizes) {
    s = static_cast<std::uint32_t>(kPingSizes[rng.below(std::size(kPingSizes))]);
  }
  in.pattern = make_pattern(derive_seed(p.seed, p.round, 1),
                            kPingMax + kSeqLen);
  return in;
}

/// Size of exchange i: warm-up cycles through every size so the
/// rendezvous path is warm too; the timed phase reads the seeded mix.
std::size_t ping_size(const PingInputs& in, std::uint64_t i, bool timed) {
  return timed ? in.sizes[i % kSeqLen]
               : kPingSizes[i % std::size(kPingSizes)];
}

}  // namespace

Round run_pingpong_shm(const Params& p, Stamp* stamp) {
  const PingInputs in = ping_inputs(p);
  Round r;
  init_lanes(r, 1, p);
  Counts snaps[2][2]{};
  const std::uint64_t t0 = now_ns();
  chant::World::Config cfg;
  cfg.pes = 2;
  cfg.rt.policy = chant::PollPolicy::ThreadPolls;
  cfg.rt.start_server = false;
  cfg.rt.workers = 1;
  cfg.transport_spec = nx::TransportSpec::shmring();
  chant::World w(cfg);
  stamp_world(w, cfg, stamp);
  w.run([&](chant::Runtime& rt) {
    const chant::Gid peer{1 - rt.pe(), 0, chant::kMainLid};
    std::vector<std::uint8_t> buf(kPingMax);
    if (rt.pe() == 1) {
      // Echo everything back; PE 0 checks the bytes.
      for (int i = 0;; ++i) {
        if (i == kPingWarm) snaps[1][0] = snapshot(rt);
        const chant::MsgInfo mi =
            rt.recv(kTagData, buf.data(), buf.size(), peer);
        if (mi.len == kStopLen) break;
        rt.send(kTagData, buf.data(), mi.len, peer);
      }
      snaps[1][1] = snapshot(rt);
      return;
    }
    Lane& lane = r.lanes[0];
    const auto exchange = [&](std::uint64_t i, bool timed) {
      SpanLog* log = timed && p.traced ? &lane.log : nullptr;
      const std::size_t size = ping_size(in, i, timed);
      const std::uint8_t* src = payload(in.pattern, i);
      chant::MsgInfo mi;
      const std::uint64_t a = now_ns();
      {
        Scope op(log, SpanKind::Op, i);
        {
          Scope s(log, SpanKind::ChantSend, i, op.id());
          rt.send(kTagData, src, size, peer);
        }
        Scope s(log, SpanKind::ChantRecv, i, op.id());
        mi = rt.recv(kTagData, buf.data(), buf.size(), peer);
      }
      const std::uint64_t b = now_ns();
      ++lane.attempted;
      if (!mi.status.ok() || mi.len != size ||
          std::memcmp(buf.data(), src, size) != 0) {
        ++lane.failed;
      }
      if (timed) lane.record(us_between(a, b));
      return b;
    };
    for (int i = 0; i < kPingWarm; ++i) exchange(i, false);
    snaps[0][0] = snapshot(rt);
    const std::uint64_t start = now_ns();
    r.setup_s = s_between(t0, start);
    const std::uint64_t deadline = start + seconds_ns(p.seconds);
    std::uint64_t t = start;
    for (std::uint64_t i = 0; t < deadline; ++i) t = exchange(i, true);
    r.timed_s = s_between(start, t);
    snaps[0][1] = snapshot(rt);
    const std::uint8_t stop = 0;
    rt.send(kTagData, &stop, kStopLen, peer);
  });
  add_delta(r.counts, snaps[0][0], snaps[0][1]);
  add_delta(r.counts, snaps[1][0], snaps[1][1]);
  return r;
}

Round run_pingpong_nx(const Params& p) {
  const PingInputs in = ping_inputs(p);
  Round r;
  init_lanes(r, 1, p);
  const std::uint64_t t0 = now_ns();
  nx::Machine::Config mc;
  mc.pes = 2;
  mc.transport_spec = nx::TransportSpec::shmring();
  nx::Machine m(mc);
  m.run([&](nx::Endpoint& ep) {
    const int peer = 1 - ep.pe();
    std::vector<std::uint8_t> buf(kPingMax);
    if (ep.pe() == 1) {
      for (;;) {
        const nx::MsgHeader h = ep.crecv(peer, 0, kTagData, nx::kTagExact,
                                         buf.data(), buf.size());
        if (h.len == kStopLen) break;
        ep.csend(peer, 0, kTagData, buf.data(), h.len);
      }
      return;
    }
    Lane& lane = r.lanes[0];
    const auto exchange = [&](std::uint64_t i, bool timed) {
      SpanLog* log = timed && p.traced ? &lane.log : nullptr;
      const std::size_t size = ping_size(in, i, timed);
      const std::uint8_t* src = payload(in.pattern, i);
      nx::MsgHeader h;
      const std::uint64_t a = now_ns();
      {
        Scope op(log, SpanKind::NxExchange, i);
        {
          Scope s(log, SpanKind::NxCsend, i, op.id());
          ep.csend(peer, 0, kTagData, src, size);
        }
        Scope s(log, SpanKind::NxCrecv, i, op.id());
        h = ep.crecv(peer, 0, kTagData, nx::kTagExact, buf.data(),
                     buf.size());
      }
      const std::uint64_t b = now_ns();
      ++lane.attempted;
      if (h.peer_gone || h.truncated || h.len != size ||
          std::memcmp(buf.data(), src, size) != 0) {
        ++lane.failed;
      }
      if (timed) lane.record(us_between(a, b));
      return b;
    };
    for (int i = 0; i < kPingWarm; ++i) exchange(i, false);
    const std::uint64_t start = now_ns();
    r.setup_s = s_between(t0, start);
    const std::uint64_t deadline = start + seconds_ns(p.seconds);
    std::uint64_t t = start;
    for (std::uint64_t i = 0; t < deadline; ++i) t = exchange(i, true);
    r.timed_s = s_between(start, t);
    const std::uint8_t stop = 0;
    ep.csend(peer, 0, kTagData, &stop, kStopLen);
  });
  return r;
}

// ---------------------------------------------------------------- rsr_mix

namespace {

enum class RsrOp : std::uint8_t { Inline, Tail, Create };
constexpr std::size_t kInlineLen = 16;
/// Above the inline reply size: the reply takes the tail path.
constexpr std::size_t kTailLen = 2048;
constexpr int kTagCtl = 8;  // start / stop notices between the mains
constexpr int kRsrWarm = 100;
constexpr int kComputeFibers = 2;
constexpr std::uint64_t kComputeIters = 200;

void echo_handler(chant::Runtime&, chant::Runtime::RsrContext&,
                  const void* arg, std::size_t len,
                  std::vector<std::uint8_t>& reply) {
  const auto* a = static_cast<const std::uint8_t*>(arg);
  reply.assign(a, a + len);
}

/// Output-check self-test: echoes with the first byte flipped whenever
/// it is a multiple of 8, about one call in eight of the seeded payloads.
void corrupt_echo_handler(chant::Runtime& rt, chant::Runtime::RsrContext& ctx,
                          const void* arg, std::size_t len,
                          std::vector<std::uint8_t>& reply) {
  echo_handler(rt, ctx, arg, len, reply);
  if (!reply.empty() && reply[0] % 8 == 0) reply[0] ^= 0xFF;
}

/// Body of remotely created (rsr_mix) and spawned (mn_sync) threads;
/// the joiner checks the return value against it.
void* triple_plus_one(void* arg) {
  return reinterpret_cast<void*>(reinterpret_cast<std::uintptr_t>(arg) * 3 +
                                 1);
}

void* busy_fiber(void* arg) {
  const auto* stop = static_cast<const std::atomic<bool>*>(arg);
  while (!stop->load(std::memory_order_relaxed)) {
    harness::consume(harness::compute(kComputeIters));
    chant::Runtime::current()->yield();
  }
  return nullptr;
}

}  // namespace

Round run_rsr_mix(const Params& p, Stamp* stamp) {
  // 70% 16 B echo (inline reply), 20% 2 KiB echo (tail), 10% create+join.
  Rng rng(derive_seed(p.seed, p.round, 0));
  std::vector<RsrOp> ops(kSeqLen);
  std::vector<std::uintptr_t> create_args(kSeqLen);
  for (std::size_t i = 0; i < kSeqLen; ++i) {
    const std::uint64_t pick = rng.below(100);
    ops[i] = pick < 70 ? RsrOp::Inline : pick < 90 ? RsrOp::Tail : RsrOp::Create;
    create_args[i] = static_cast<std::uintptr_t>(rng.below(1ull << 40) + 1);
  }
  const std::vector<std::uint8_t> pattern =
      make_pattern(derive_seed(p.seed, p.round, 1), kTailLen + kSeqLen);

  Round r;
  init_lanes(r, 1, p);
  Counts snaps[2][2]{};
  const std::uint64_t t0 = now_ns();
  chant::World::Config cfg;
  cfg.pes = 2;
  cfg.rt.policy = chant::PollPolicy::SchedulerPollsPS;
  cfg.rt.server_high_priority = true;
  cfg.rt.workers = 1;
  cfg.transport_spec = nx::TransportSpec::inproc();
  chant::World w(cfg);
  stamp_world(w, cfg, stamp);
  const int echo =
      w.register_handler(p.corrupt ? &corrupt_echo_handler : &echo_handler);
  w.run([&](chant::Runtime& rt) {
    const chant::Gid peer{1 - rt.pe(), 0, chant::kMainLid};
    char ctl = 0;
    if (rt.pe() == 1) {
      // Computation competing with the server thread on the server's PE.
      std::atomic<bool> stop{false};
      std::vector<chant::Gid> busy;
      for (int i = 0; i < kComputeFibers; ++i) {
        busy.push_back(rt.create(&busy_fiber, &stop, PTHREAD_CHANTER_LOCAL,
                                 PTHREAD_CHANTER_LOCAL));
      }
      (void)rt.recv(kTagCtl, &ctl, 1, peer);
      snaps[1][0] = snapshot(rt);
      (void)rt.recv(kTagCtl, &ctl, 1, peer);
      snaps[1][1] = snapshot(rt);
      stop.store(true, std::memory_order_relaxed);
      for (const chant::Gid& g : busy) rt.join(g);
      return;
    }
    Lane& lane = r.lanes[0];
    const auto do_op = [&](std::uint64_t i, RsrOp kind, bool timed) {
      SpanLog* log = timed && p.traced ? &lane.log : nullptr;
      const std::size_t len = kind == RsrOp::Inline ? kInlineLen : kTailLen;
      const std::uint8_t* arg = payload(pattern, i);
      void* create_arg = reinterpret_cast<void*>(create_args[i % kSeqLen]);
      std::vector<std::uint8_t> reply;
      void* ret = nullptr;
      int err = -1;
      const std::uint64_t a = now_ns();
      {
        Scope op(log, SpanKind::Op, i);
        if (kind == RsrOp::Create) {
          chant::Gid g{-1, -1, -1};
          {
            Scope s(log, SpanKind::RemoteCreate, i, op.id());
            g = rt.create(&triple_plus_one, create_arg, 1, 0);
          }
          Scope s(log, SpanKind::RemoteJoin, i, op.id());
          ret = rt.join(g, &err);
        } else {
          Scope s(log,
                  kind == RsrOp::Inline ? SpanKind::CallInline
                                        : SpanKind::CallTail,
                  i, op.id());
          reply = rt.call(1, 0, echo, arg, len);
        }
      }
      const std::uint64_t b = now_ns();
      ++lane.attempted;
      const bool ok =
          kind == RsrOp::Create
              ? err == 0 && ret == triple_plus_one(create_arg)
              : reply.size() == len &&
                    std::memcmp(reply.data(), arg, len) == 0;
      if (!ok) ++lane.failed;
      if (timed) lane.record(us_between(a, b));
      return b;
    };
    for (int i = 0; i < kRsrWarm; ++i) {
      do_op(i, i % 10 < 7 ? RsrOp::Inline : i % 10 < 9 ? RsrOp::Tail
                                                      : RsrOp::Create,
            false);
    }
    rt.send(kTagCtl, &ctl, 1, peer);
    snaps[0][0] = snapshot(rt);
    const std::uint64_t start = now_ns();
    r.setup_s = s_between(t0, start);
    const std::uint64_t deadline = start + seconds_ns(p.seconds);
    std::uint64_t t = start;
    for (std::uint64_t i = 0; t < deadline; ++i) {
      t = do_op(i, ops[i % kSeqLen], true);
    }
    r.timed_s = s_between(start, t);
    snaps[0][1] = snapshot(rt);
    rt.send(kTagCtl, &ctl, 1, peer);
  });
  add_delta(r.counts, snaps[0][0], snaps[0][1]);
  add_delta(r.counts, snaps[1][0], snaps[1][1]);
  return r;
}

// ---------------------------------------------------------------- fig9_wq

namespace {

constexpr int kFig9Fibers = 12;
constexpr std::uint64_t kBeta = 100;
constexpr std::uint64_t kAlphaMin = 100;
constexpr std::uint64_t kAlphaMax = 1000;
constexpr std::uint64_t kFig9Warm = 20;  // iterations per fiber

/// Per-PE bookkeeping. Only that PE's fibers touch it, and a PE runs
/// one scheduler worker, so plain fields suffice.
struct Fig9Pe {
  std::uint64_t start = 0;     ///< PE 0: first fiber past warm-up
  std::uint64_t deadline = 0;  ///< PE 0: when fibers send the stop tick
  std::uint64_t end = 0;       ///< PE 0: last fiber done
  int warmed = 0;
  int finished = 0;
  Counts before{}, after{};
};

struct Fig9Fiber {
  chant::Runtime* rt = nullptr;
  Lane* lane = nullptr;
  Fig9Pe* pe = nullptr;
  const std::vector<std::uint16_t>* alpha = nullptr;
  const Params* params = nullptr;
};

/// Paper Fig. 9: loop {compute(alpha); send; compute(beta); recv} against
/// the twin fiber (same local id) on the other PE. A tick carries the
/// iteration number; PE 0 sets its low bit on the last iteration, and
/// the twin stops after receiving it, so every send meets its receive.
void* fig9_fiber(void* arg) {
  const Fig9Fiber& c = *static_cast<const Fig9Fiber*>(arg);
  chant::Runtime& rt = *c.rt;
  Lane& lane = *c.lane;
  Fig9Pe& st = *c.pe;
  const int pe = rt.pe();
  const chant::Gid peer{1 - pe, 0, rt.self().thread};
  const std::uint64_t op_base = static_cast<std::uint64_t>(lane.tid) << 40;
  for (std::uint64_t k = 0;; ++k) {
    const bool timed = k >= kFig9Warm;
    if (k == kFig9Warm) {
      if (++st.warmed == kFig9Fibers) st.before = snapshot(rt);
      if (pe == 0 && st.start == 0) {
        st.start = now_ns();
        st.deadline = st.start + seconds_ns(c.params->seconds);
      }
    }
    SpanLog* log = timed && c.params->traced ? &lane.log : nullptr;
    const std::uint64_t a = now_ns();
    const bool last = pe == 0 && timed && a >= st.deadline;
    const std::uint64_t tick = (k << 1) | (last ? 1 : 0);
    std::uint64_t got = ~std::uint64_t{0};
    chant::MsgInfo mi;
    {
      Scope op(log, SpanKind::Op, op_base | k);
      harness::consume(harness::compute((*c.alpha)[k % kSeqLen]));
      {
        Scope s(log, SpanKind::ChantSend, op_base | k, op.id());
        rt.send(kTagData, &tick, sizeof tick, peer);
      }
      harness::consume(harness::compute(kBeta));
      Scope s(log, SpanKind::ChantRecv, op_base | k, op.id());
      mi = rt.recv(kTagData, &got, sizeof got, peer);
    }
    const std::uint64_t b = now_ns();
    ++lane.attempted;
    if (!mi.status.ok() || mi.len != sizeof got || (got >> 1) != k ||
        (pe == 0 && (got & 1) != 0)) {
      ++lane.failed;
    }
    if (timed) lane.record(us_between(a, b));
    if (last || (pe == 1 && (got & 1) != 0)) break;
  }
  if (pe == 0) st.end = std::max(st.end, now_ns());
  if (++st.finished == kFig9Fibers) st.after = snapshot(rt);
  return nullptr;
}

}  // namespace

Round run_fig9_wq(const Params& p, Stamp* stamp) {
  std::vector<std::vector<std::uint16_t>> alpha(2 * kFig9Fibers);
  for (std::size_t f = 0; f < alpha.size(); ++f) {
    Rng rng(derive_seed(p.seed, p.round, static_cast<int>(f)));
    alpha[f].resize(kSeqLen);
    for (auto& a : alpha[f]) {
      a = static_cast<std::uint16_t>(
          kAlphaMin + rng.below(kAlphaMax - kAlphaMin + 1));
    }
  }
  Round r;
  init_lanes(r, 2 * kFig9Fibers, p);
  Fig9Pe pes[2];
  const std::uint64_t t0 = now_ns();
  chant::World::Config cfg;
  cfg.pes = 2;
  cfg.rt.policy = chant::PollPolicy::SchedulerPollsWQ;
  cfg.rt.start_server = false;
  cfg.rt.workers = 1;
  cfg.transport_spec = nx::TransportSpec::inproc();
  chant::World w(cfg);
  stamp_world(w, cfg, stamp);
  w.run([&](chant::Runtime& rt) {
    const int pe = rt.pe();
    std::vector<Fig9Fiber> ctx(kFig9Fibers);
    std::vector<chant::Gid> mine;
    for (int f = 0; f < kFig9Fibers; ++f) {
      const std::size_t idx = static_cast<std::size_t>(pe * kFig9Fibers + f);
      Lane& lane = r.lanes[idx];
      lane.pid = pe;
      lane.tid = f;
      ctx[static_cast<std::size_t>(f)] =
          Fig9Fiber{&rt, &lane, &pes[pe], &alpha[idx], &p};
      mine.push_back(rt.create(&fig9_fiber, &ctx[static_cast<std::size_t>(f)],
                               PTHREAD_CHANTER_LOCAL, PTHREAD_CHANTER_LOCAL));
    }
    for (const chant::Gid& g : mine) rt.join(g);
  });
  r.setup_s = s_between(t0, pes[0].start);
  r.timed_s = s_between(pes[0].start, pes[0].end);
  add_delta(r.counts, pes[0].before, pes[0].after);
  add_delta(r.counts, pes[1].before, pes[1].after);
  return r;
}

// ---------------------------------------------------------------- mn_sync

namespace {

enum class MnOp : std::uint8_t { SpawnJoin, Mutex, Handoff };
constexpr int kMnClients = 8;
constexpr int kMnMutexes = 4;
constexpr std::uint64_t kMnWarm = 200;  // ops per client

struct MnShared {
  lwt::Mutex mu[kMnMutexes];
  /// Incremented under mu[i] by a separate load and store, so a mutex
  /// that let two fibers in would lose updates and fail the final sum.
  std::atomic<std::uint64_t> count[kMnMutexes] = {};
  /// Occupancy flags: a fiber finding one set inside the critical
  /// section has caught a mutual-exclusion failure in the act.
  std::atomic<int> inside[kMnMutexes] = {};
};

/// A client and its responder: the handoff op releases `req` and
/// acquires `resp`, which the responder releases after counting.
struct MnPair {
  lwt::Semaphore req{0};
  lwt::Semaphore resp{0};
  std::atomic<std::uint64_t> echoes{0};
  std::atomic<bool> stop{false};
};

struct MnClient {
  lwt::Scheduler* sched = nullptr;
  MnShared* shared = nullptr;
  MnPair* pair = nullptr;
  Lane* lane = nullptr;
  std::vector<MnOp> ops;
  std::vector<std::uint8_t> mutex_idx;
  std::vector<std::uintptr_t> args;
  std::uint64_t mutex_ops[kMnMutexes] = {};
  std::uint64_t handoffs = 0;
  std::uint64_t next_op = 0;  ///< continues across the warm-up and timed runs
  // Set per run by the main fiber.
  bool timed = false;
  bool traced = false;
  std::uint64_t deadline = 0;
};

void* mn_responder(void* arg) {
  MnPair& pair = *static_cast<MnPair*>(arg);
  for (;;) {
    pair.req.acquire();
    if (pair.stop.load(std::memory_order_relaxed)) break;
    pair.echoes.fetch_add(1, std::memory_order_relaxed);
    pair.resp.release();
  }
  return nullptr;
}

void* mn_client(void* arg) {
  MnClient& c = *static_cast<MnClient*>(arg);
  Lane& lane = *c.lane;
  SpanLog* log = c.timed && c.traced ? &lane.log : nullptr;
  const std::uint64_t first = c.next_op;
  const std::uint64_t op_base = static_cast<std::uint64_t>(lane.tid) << 40;
  std::uint64_t t = now_ns();
  for (std::uint64_t i = first;
       c.timed ? t < c.deadline : i < first + kMnWarm; ++i) {
    const std::size_t at = i % kSeqLen;
    const MnOp kind = c.ops[at];
    bool ok = true;
    const std::uint64_t a = now_ns();
    {
      Scope op(log, SpanKind::Op, op_base | i);
      switch (kind) {
        case MnOp::SpawnJoin: {
          void* in = reinterpret_cast<void*>(c.args[at]);
          Scope s(log, SpanKind::SpawnJoin, op_base | i, op.id());
          lwt::Tcb* child = c.sched->spawn(&triple_plus_one, in);
          ok = c.sched->join(child) == triple_plus_one(in);
          break;
        }
        case MnOp::Mutex: {
          const int m = c.mutex_idx[at];
          {
            Scope s(log, SpanKind::MutexLock, op_base | i, op.id());
            c.shared->mu[m].lock();
          }
          ok = c.shared->inside[m].exchange(1, std::memory_order_relaxed) == 0;
          const std::uint64_t v =
              c.shared->count[m].load(std::memory_order_relaxed);
          c.shared->count[m].store(v + 1, std::memory_order_relaxed);
          c.shared->inside[m].store(0, std::memory_order_relaxed);
          c.shared->mu[m].unlock();
          ++c.mutex_ops[m];
          break;
        }
        case MnOp::Handoff: {
          {
            Scope s(log, SpanKind::Handoff, op_base | i, op.id());
            c.pair->req.release();
            c.pair->resp.acquire();
          }
          ok = c.pair->echoes.load(std::memory_order_relaxed) ==
               ++c.handoffs;
          break;
        }
      }
    }
    t = now_ns();
    ++lane.attempted;
    if (!ok) ++lane.failed;
    if (c.timed) lane.record(us_between(a, t));
    c.next_op = i + 1;
  }
  return nullptr;
}

/// Runs `f` as the main fiber of `s` (lwt::run would build its own
/// scheduler and drop set_workers).
template <typename F>
void run_on(lwt::Scheduler& s, F&& f) {
  using Fn = std::remove_reference_t<F>;
  s.run_main(
      [](void* fp) -> void* {
        (*static_cast<Fn*>(fp))();
        return nullptr;
      },
      &f);
}

}  // namespace

Round run_mn_sync(const Params& p, Stamp* stamp) {
  const unsigned workers = std::min(4u, host_nproc());
  std::vector<MnClient> clients(kMnClients);
  for (int k = 0; k < kMnClients; ++k) {
    // The three ops in equal shares: no measured mix exists to copy.
    Rng rng(derive_seed(p.seed, p.round, k));
    MnClient& c = clients[static_cast<std::size_t>(k)];
    c.ops.resize(kSeqLen);
    c.mutex_idx.resize(kSeqLen);
    c.args.resize(kSeqLen);
    for (std::size_t i = 0; i < kSeqLen; ++i) {
      const std::uint64_t pick = rng.below(3);
      c.ops[i] = pick == 0 ? MnOp::SpawnJoin
                 : pick == 1 ? MnOp::Mutex
                             : MnOp::Handoff;
      c.mutex_idx[i] = static_cast<std::uint8_t>(rng.below(kMnMutexes));
      c.args[i] = static_cast<std::uintptr_t>(rng.below(1ull << 40) + 1);
    }
  }
  stamp->transport = "none";
  stamp->policy = "none";
  stamp->workers = workers;
  stamp->pes = 1;

  Round r;
  init_lanes(r, kMnClients, p);
  MnShared shared;
  std::vector<MnPair> pairs(kMnClients);
  const std::uint64_t t0 = now_ns();
  lwt::Scheduler sched;
  sched.set_workers(workers);
  for (int k = 0; k < kMnClients; ++k) {
    MnClient& c = clients[static_cast<std::size_t>(k)];
    c.sched = &sched;
    c.shared = &shared;
    c.pair = &pairs[static_cast<std::size_t>(k)];
    c.lane = &r.lanes[static_cast<std::size_t>(k)];
    c.traced = p.traced;
  }
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  // One run_main per phase: between runs the scheduler is quiescent, so
  // its stats() read is exact.
  const auto phase = [&](bool timed) {
    run_on(sched, [&] {
      if (timed) {
        start = now_ns();
        for (MnClient& c : clients) {
          c.deadline = start + seconds_ns(p.seconds);
        }
      }
      std::vector<lwt::Tcb*> responders;
      std::vector<lwt::Tcb*> fibers;
      for (MnPair& pair : pairs) {
        pair.stop.store(false, std::memory_order_relaxed);
        responders.push_back(sched.spawn(&mn_responder, &pair));
      }
      for (MnClient& c : clients) {
        c.timed = timed;
        fibers.push_back(sched.spawn(&mn_client, &c));
      }
      for (lwt::Tcb* t : fibers) sched.join(t);
      if (timed) end = now_ns();
      for (MnPair& pair : pairs) {
        pair.stop.store(true, std::memory_order_relaxed);
        pair.req.release();
      }
      for (lwt::Tcb* t : responders) sched.join(t);
    });
  };
  phase(false);
  const Counts before = snapshot(sched.stats());
  phase(true);
  const Counts after = snapshot(sched.stats());
  r.setup_s = s_between(t0, start);
  r.timed_s = s_between(start, end);
  add_delta(r.counts, before, after);
  for (int m = 0; m < kMnMutexes; ++m) {
    std::uint64_t done = 0;
    for (const MnClient& c : clients) done += c.mutex_ops[m];
    const std::uint64_t counted = shared.count[m].load();
    r.extra_failed += done > counted ? done - counted : counted - done;
  }
  return r;
}

}  // namespace cb
