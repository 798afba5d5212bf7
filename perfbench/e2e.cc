// perfbench_e2e — end-to-end benchmark of serve::Daemon over its Unix
// socket, with a traced in-process replay that splits the time by layer.
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out FILE] [--git-sha SHA]
//
// The working directory receives the socket and the daemon's flight dumps
// (run.py makes it a per-run temp dir). One run:
//  1. set-up: construct the daemon, serve it on a thread, and ping it over
//     the socket; repeated with throwaway daemons at the start of every
//     round, the median is setup_s;
//  2. open-loop `serve` at the workload's fixed rate, each request timed
//     from when it was due;
//  3. closed-loop `serve` capacity, kPipelineDepth requests in flight;
//  4. bulk `gen` batches (plus churn) on one connection while a second one
//     sends open-loop `status` / `metrics prom` scrapes;
//  5. correctness: every mutating command is replayed in-process through
//     Daemon::HandleRequest; each reply and the final `metrics text` and
//     `audit` must match the socket run byte for byte.
// With --trace 0 the result holds the end-to-end metrics, measured only at
// the client. With --trace 1 the same traffic runs, then the command
// sequence is replayed three times in-process with spans around the
// public calls of each layer — daemon (HandleRequest), engine (Serve) and
// the serial oracle (OpusMaster::OnAccess + CacheCluster::Read, with an
// out-of-band OpusAllocator::AllocateIncremental at every window) — and
// the result holds the per-layer metrics. The last stdout line is the
// JSON result.
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/opus.h"
#include "core/policy_factory.h"
#include "obs/latency.h"
#include "obs/span_trace.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/watch.h"
#include "workload.h"

namespace perfbench {
namespace {

using opus::obs::MonotonicNanos;
using opus::serve::Daemon;
using opus::workload::AccessEvent;
using Samples = std::map<std::string, double>;

constexpr char kSocket[] = "opus.sock";
constexpr char kFlight[] = "flight.json";
constexpr char kSetupSocket[] = "setup.sock";
constexpr char kSetupFlight[] = "setup_flight.json";
constexpr int kSetupsPerPhase = 4;
constexpr std::size_t kPings = 2000;
constexpr std::size_t kCtlCalls = 200;
constexpr std::size_t kDumps = 5;
constexpr std::size_t kSpanCapacity = 60000;
constexpr std::size_t kSpanSampleEvery = 128;
constexpr std::size_t kRateChunks = 8;

[[noreturn]] void Fail(const std::string& msg, int code = 2) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::fflush(stdout);
  std::_Exit(code);
}

double Seconds(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

std::vector<std::string> Tokens(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

bool IsErr(std::string_view reply) { return reply.starts_with("err"); }

// --- socket client --------------------------------------------------------

bool SendAll(int fd, std::string_view buf) {
  while (!buf.empty()) {
    const ssize_t n = ::send(fd, buf.data(), buf.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    buf.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

// A connection whose reads give up after 60 s, so a hung daemon fails the
// run instead of stalling it. Its send buffer holds the requests an open
// loop queues while the daemon is busy in a long window.
class Conn {
 public:
  explicit Conn(int fd) : fd_(fd) {
    timeval tv{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    const int sndbuf = 4 << 20;
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }
  std::string Call(const std::string& request) {
    std::string reply;
    if (!SendAll(fd_, opus::serve::EncodeFrame(request)) ||
        !opus::serve::ReadFrame(fd_, &reply)) {
      Fail("no reply to '" + request + "'");
    }
    return reply;
  }

 private:
  int fd_;
};

// Retries until the daemon listens. It yields rather than sleeps: the
// client has CPUs of its own, and a sleep's wake-up would add its own
// jitter to setup_s.
std::unique_ptr<Conn> DialRetry(const std::string& path) {
  const std::uint64_t deadline = MonotonicNanos() + 10'000'000'000ull;
  while (MonotonicNanos() < deadline) {
    const int fd = opus::serve::DialUnix(path);
    if (fd >= 0) return std::make_unique<Conn>(fd);
    ::sched_yield();
  }
  Fail("daemon socket never came up");
}

// Each role gets its own CPUs, as if client and daemon ran on two hosts:
// the daemon's serve loop one CPU, the engine's pool threads another, the
// client the rest. Shared CPUs let a send wake the daemon onto the
// sender's core, stalling the open-loop generator for milliseconds, and
// let the serve loop and its probe thread land on one core by chance.
// Hosts with fewer than 4 allowed CPUs run unpinned.
struct CpuRoles {
  cpu_set_t serve_loop, pool, client;
  bool pinned = false;
};

const CpuRoles& Cpus() {
  static const CpuRoles roles = [] {
    CpuRoles r;
    cpu_set_t all;
    CPU_ZERO(&all);
    CPU_ZERO(&r.serve_loop);
    CPU_ZERO(&r.pool);
    CPU_ZERO(&r.client);
    if (::sched_getaffinity(0, sizeof(all), &all) != 0) return r;
    if (CPU_COUNT(&all) < 4) return r;
    int seen = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &all)) continue;
      CPU_SET(cpu, seen == 0 ? &r.serve_loop : seen == 1 ? &r.pool : &r.client);
      ++seen;
    }
    r.pinned = true;
    return r;
  }();
  return roles;
}

void PinSelf(const cpu_set_t& set) {
  if (Cpus().pinned) {
    ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
  }
}

// The daemon serving on its own thread, pinned to the serve-loop CPU. The
// thread is declared last so it starts only once the daemon is built.
class DaemonHost {
 public:
  DaemonHost(opus::serve::DaemonConfig config, opus::cache::Catalog catalog)
      : daemon_(std::move(config), std::move(catalog)),
        thread_([this] {
          PinSelf(Cpus().serve_loop);
          rc_ = daemon_.Run();
        }) {}
  ~DaemonHost() {
    daemon_.Stop();
    if (thread_.joinable()) thread_.join();
  }
  DaemonHost(const DaemonHost&) = delete;
  DaemonHost& operator=(const DaemonHost&) = delete;

  // After a `shutdown` command: waits for the serve loop to return.
  int Join() {
    thread_.join();
    return rc_;
  }

 private:
  Daemon daemon_;
  int rc_ = 0;
  std::thread thread_;
};

// Mutating commands in the order the daemon applied them, with a hash of
// each socket reply: the script of the correctness replay.
struct Script {
  std::vector<std::string> cmds;
  std::vector<std::uint64_t> hashes;

  void Append(std::string cmd) {
    cmds.push_back(std::move(cmd));
    hashes.push_back(0);
  }
};

// Outcome counts of replies, owned by one thread at a time.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;
  std::uint64_t mem_bytes = 0;
  std::uint64_t disk_bytes = 0;
  std::string first_error;

  void Add(const std::string& request, const std::string& reply) {
    ++attempted;
    if (IsErr(reply)) {
      if (errors++ == 0) first_error = "'" + request + "' -> " + reply;
      return;
    }
    std::uint64_t mem = 0, disk = 0;
    if (ParseReplyBytes(reply, &mem, &disk)) {
      mem_bytes += mem;
      disk_bytes += disk;
    }
  }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    if (errors == 0 && o.errors > 0) first_error = o.first_error;
    errors += o.errors;
    mem_bytes += o.mem_bytes;
    disk_bytes += o.disk_bytes;
  }
};

void SleepUntilNs(std::uint64_t ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(ns)));
}

// Writes as much of pending[*off..] as the socket takes without blocking.
// False when the connection is gone.
bool FlushSome(int fd, std::string* pending, std::size_t* off) {
  while (*off < pending->size()) {
    const ssize_t n = ::send(fd, pending->data() + *off, pending->size() - *off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    *off += static_cast<std::size_t>(n);
  }
  pending->clear();
  *off = 0;
  return true;
}

// Sleeps until fd can take more bytes or deadline_ns passes.
void WaitWritable(int fd, std::uint64_t deadline_ns) {
  const std::uint64_t now = MonotonicNanos();
  if (deadline_ns <= now) return;
  const std::uint64_t wait = deadline_ns - now;
  const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                    static_cast<long>(wait % 1'000'000'000)};
  pollfd p{fd, POLLOUT, 0};
  ::ppoll(&p, 1, &ts, nullptr);
}

// Open loop on one connection, starting at start_ns: this thread queues
// request k at its due time whatever happened to earlier ones, and writes
// without blocking, so a daemon that stops reading delays replies but
// never the schedule; a receiver thread timestamps replies, which arrive
// in order. Sending stops once the log, sized by the caller, is full or
// stop(k) says so; the log is then cut to the requests sent.
template <typename MakeFn, typename StopFn, typename ReplyFn>
void RunOpenLoop(int fd, std::uint64_t start_ns, double rate, MakeFn make,
                 StopFn stop, ReplyFn on_reply, OpenLoopLog* out) {
  OpenLoopLog& log = *out;
  const std::size_t max_count = log.due_ns.size();
  const OpenLoopSchedule sched = OpenLoopSchedule::AtRate(start_ns, rate);
  std::atomic<std::size_t> sent{0};
  std::atomic<bool> done{false};
  std::atomic<bool> broken{false};
  std::thread receiver([&] {
    std::size_t k = 0;
    std::string reply;
    while (true) {
      const bool finished = done.load(std::memory_order_acquire);
      const std::size_t avail = sent.load(std::memory_order_acquire);
      if (k == avail) {
        if (finished) break;
        pollfd p{fd, POLLIN, 0};
        ::poll(&p, 1, 1);
        continue;
      }
      if (!opus::serve::ReadFrame(fd, &reply)) {
        broken.store(true);
        break;  // the rest stay unanswered and count as failed
      }
      log.recv_ns[k] = MonotonicNanos();
      if (IsErr(reply)) log.failed[k] = 1;
      on_reply(k, reply);
      ++k;
    }
  });
  std::size_t k = 0;
  std::string pending;  // encoded requests the socket has not taken yet
  std::size_t pending_off = 0;
  while (!broken.load()) {
    const bool more = k < max_count && !stop(k);
    const bool backlog = pending_off < pending.size();
    if (!more && !backlog) break;
    if (!more) {
      WaitWritable(fd, MonotonicNanos() + 1'000'000);
    } else if (MonotonicNanos() < sched.Due(k)) {
      if (backlog) {
        WaitWritable(fd, sched.Due(k));
      } else {
        SleepUntilNs(sched.Due(k));
      }
    }
    const std::uint64_t now = MonotonicNanos();
    std::size_t j = k;
    while (j < max_count && sched.Due(j) <= now && !stop(j)) {
      log.due_ns[j] = sched.Due(j);
      log.sent_ns[j] = now;
      pending += opus::serve::EncodeFrame(make(j));
      ++j;
    }
    if (j != k) {
      k = j;
      sent.store(k, std::memory_order_release);
    }
    if (!FlushSome(fd, &pending, &pending_off)) broken.store(true);
  }
  done.store(true, std::memory_order_release);
  receiver.join();
  for (auto* v : {&log.due_ns, &log.sent_ns, &log.recv_ns}) v->resize(k);
  log.failed.resize(k);
}

// Where a rate phase's backlog is counted: one SLO after its last due
// time, so only requests already late by then count.
std::uint64_t PhaseEnd(const OpenLoopLog& log) {
  return log.due_ns.empty() ? 0 : log.due_ns.back() + kSloNs;
}

// A generator is behind its schedule once its send lag p99 exceeds both
// five SLOs and two inter-arrival gaps: then latencies timed from due
// times would blame the daemon for the client's own stalls. The slack
// admits the few-ms scheduling hiccups a shared 4-core host shows while
// the daemon writes its flight dumps.
std::uint64_t LagLimitNs(double rate) {
  return std::max<std::uint64_t>(5 * kSloNs,
                                 static_cast<std::uint64_t>(2e9 / rate));
}

// --- the socket run -------------------------------------------------------

// Client-side inputs of one round: ranges of the script and the open-loop
// logs, all made before the first daemon is built.
struct Round {
  std::size_t open_base = 0, open_n = 0;
  std::size_t cap_base = 0, cap_n = 0;
  std::size_t bulk_base = 0, batches = 0, cmds_per_batch = 0;
  std::size_t min_scrapes = 0;
  OpenLoopLog open_log, ctl_log;
};

struct SocketRun {
  double setup_s = 0.0;
  std::vector<double> setup_samples;
  OpenLoopStats open;                  // pooled over the rounds
  std::vector<double> capacity_rates;  // req/s per slice, every round
  std::vector<double> bulk_rates;      // events/s per bulk batch
  std::uint64_t gen_events = 0;
  double bulk_seconds = 0.0;
  OpenLoopStats ctl;         // pooled over the rounds
  double ping_rtt_us = 0.0;  // closed loop, one in flight
  double phases_seconds = 0.0;
  double peak_rss_mb = 0.0;
  Tally tally;  // every request over the socket
  std::uint64_t unanswered = 0;
  Script script;
  // daemon.request.ns summed over the open-loop phases only.
  double open_handle_sum_ns = 0.0, open_handle_count = 0.0;
  // Scrapes after the first open-loop phase (its quantiles cover setup
  // pings and serve requests only) and at the end.
  Samples prom_after_open, prom_final, status_final;
  std::string metrics_text, audit;
};

// Resident set size now, in MiB.
double RssMb() {
  long pages = 0, resident = 0;
  std::ifstream statm("/proc/self/statm");
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}
// High-water mark of the resident set so far, in MiB.
double PeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Latency quantiles and lag over the rate phases of every round; the
// backlog is counted at each phase's own end and summed.
OpenLoopStats SummarizeRounds(const std::vector<Round>& rounds,
                              OpenLoopLog Round::*which) {
  OpenLoopLog all;
  std::size_t backlog = 0;
  for (const Round& round : rounds) {
    const OpenLoopLog& r = round.*which;
    all.due_ns.insert(all.due_ns.end(), r.due_ns.begin(), r.due_ns.end());
    all.sent_ns.insert(all.sent_ns.end(), r.sent_ns.begin(), r.sent_ns.end());
    all.recv_ns.insert(all.recv_ns.end(), r.recv_ns.begin(), r.recv_ns.end());
    all.failed.insert(all.failed.end(), r.failed.begin(), r.failed.end());
    backlog += SummarizeOpenLoop(r, kSloNs, PhaseEnd(r)).backlog_at_end;
  }
  OpenLoopStats st = SummarizeOpenLoop(all, kSloNs, /*phase_end_ns=*/0);
  st.backlog_at_end = backlog;
  return st;
}

// Closed loop over script commands [base, base + n) with kPipelineDepth
// requests in flight. Appends the rate of each of kRateChunks equal
// slices, so one host hiccup moves one slice.
void RunCapacity(Conn& conn, std::size_t base, std::size_t n,
                 SocketRun* run) {
  const std::vector<std::string>& cmds = run->script.cmds;
  std::size_t next = 0;
  std::string buf;
  for (; next < std::min(kPipelineDepth, n); ++next) {
    buf += opus::serve::EncodeFrame(cmds[base + next]);
  }
  if (!SendAll(conn.fd(), buf)) Fail("capacity phase: send failed");
  const std::size_t chunk = std::max<std::size_t>(1, n / kRateChunks);
  std::uint64_t chunk_start = MonotonicNanos();
  std::string reply;
  for (std::size_t k = 0; k < n; ++k) {
    if (!opus::serve::ReadFrame(conn.fd(), &reply)) {
      Fail("capacity phase: no reply");
    }
    run->tally.Add(cmds[base + k], reply);
    run->script.hashes[base + k] = Fnv1a(reply);
    if (next < n &&
        !SendAll(conn.fd(), opus::serve::EncodeFrame(cmds[base + next++]))) {
      Fail("capacity phase: send failed");
    }
    if ((k + 1) % chunk == 0) {
      const std::uint64_t now = MonotonicNanos();
      run->capacity_rates.push_back(static_cast<double>(chunk) /
                                    Seconds(now - chunk_start));
      chunk_start = now;
    }
  }
}

// A daemon served on its own thread, and a connection that has had its
// first `pong`.
struct Started {
  std::unique_ptr<DaemonHost> host;
  std::unique_ptr<Conn> conn;
};

// One set-up: builds a daemon and pings it over the socket. Appends the
// seconds from construction until the pong to run->setup_samples.
Started StartDaemon(const WorkloadSpec& spec, std::uint64_t seed,
                    const char* socket, const char* flight, SocketRun* run) {
  opus::cache::Catalog catalog = MakeCatalog(spec, seed);
  opus::serve::DaemonConfig config = MakeDaemonConfig(spec, socket, flight);
  Started s;
  const std::uint64_t t0 = MonotonicNanos();
  s.host = std::make_unique<DaemonHost>(std::move(config), std::move(catalog));
  s.conn = DialRetry(socket);
  const std::string pong = s.conn->Call("ping");
  run->setup_samples.push_back(Seconds(MonotonicNanos() - t0));
  run->tally.Add("ping", pong);
  return s;
}

void StopDaemon(Started* s, SocketRun* run) {
  run->tally.Add("shutdown", s->conn->Call("shutdown"));
  s->conn.reset();
  if (s->host->Join() != 0) Fail("daemon serve loop failed");
  s->host.reset();
}

SocketRun RunOverSocket(const WorkloadSpec& spec, std::uint64_t seed,
                        double seconds) {
  SocketRun run;
  const PhasePlan plan = PlanPhases(spec, seconds);
  const opus::cache::Catalog catalog = MakeCatalog(spec, seed);

  // Every input and log of the client first, so the client's memory is in
  // the RSS baseline and peak_rss_mb counts what the daemon adds to it.
  // Round r's share of a phase's total work:
  const auto share = [&plan](std::size_t total, std::size_t r) {
    return total * (r + 1) / plan.rounds - total * r / plan.rounds;
  };
  RequestStream stream(spec, seed);
  std::vector<Round> rounds(plan.rounds);
  std::size_t batch_index = 0;
  for (std::size_t r = 0; r < plan.rounds; ++r) {
    Round& round = rounds[r];
    round.open_base = run.script.cmds.size();
    round.open_n = share(plan.open_requests, r);
    for (std::size_t k = 0; k < round.open_n; ++k) {
      run.script.Append(stream.Next());
    }
    round.cap_base = run.script.cmds.size();
    round.cap_n = share(plan.capacity_requests, r);
    for (std::size_t k = 0; k < round.cap_n; ++k) {
      run.script.Append(stream.Next());
    }
    round.bulk_base = run.script.cmds.size();
    round.batches = share(plan.gen_batches, r);
    for (std::size_t k = 0; k < round.batches; ++k) {
      std::vector<std::string> cmds =
          BulkCommands(spec, catalog, seed, batch_index++);
      round.cmds_per_batch = cmds.size();
      for (std::string& cmd : cmds) run.script.Append(std::move(cmd));
    }
    round.min_scrapes = share(plan.min_scrapes, r);
    round.open_log.Resize(round.open_n);
    // Scrapes run until the bulk work is done: room for four times the
    // round's bulk time on the reference host, and at least min_scrapes.
    const double bulk_s =
        static_cast<double>(round.batches * spec.gen_events) /
        spec.bulk_events_hint;
    round.ctl_log.Resize(round.min_scrapes + static_cast<std::size_t>(
                                                 4.0 * bulk_s * spec.scrape_rate));
  }
  const double baseline_mb = RssMb();

  // 1. Set-up: the serving daemon's own, then kSetupsPerPhase throwaway
  // daemons before every phase of every round. The host's speed drifts
  // over seconds, so setup_s, their median, samples the whole run rather
  // than its first moments.
  Started main = StartDaemon(spec, seed, kSocket, kFlight, &run);
  Conn& conn = *main.conn;
  const auto setups = [&] {
    for (int k = 0; k < kSetupsPerPhase; ++k) {
      Started extra =
          StartDaemon(spec, seed, kSetupSocket, kSetupFlight, &run);
      StopDaemon(&extra, &run);
    }
  };
  std::unique_ptr<Conn> ctl = DialRetry(kSocket);

  const std::uint64_t phases_start = MonotonicNanos();
  const auto scrape = [&](const std::string& request) {
    const std::string reply = conn.Call(request);
    run.tally.Add(request, reply);
    return opus::serve::ParseNumericSamples(reply);
  };
  // Mostly `status`; every fourth scrape is the full `metrics prom`.
  const auto ctl_request = [](std::size_t k) -> std::string {
    return k % 4 == 3 ? "metrics prom" : "status";
  };

  // The phases run in plan.rounds rounds, so each metric samples the
  // whole run rather than a few seconds of a host whose speed drifts.
  std::size_t open_planned = 0, ctl_sent = 0;
  Tally open_tally, ctl_tally;
  for (std::size_t r = 0; r < plan.rounds; ++r) {
    Round& round = rounds[r];
    // 2. Open-loop serve at the workload's rate.
    setups();
    const ScrapedSummary before =
        ScrapeSummary(scrape("metrics prom"), "daemon.request.ns");
    const std::vector<std::string>& cmds = run.script.cmds;
    RunOpenLoop(
        conn.fd(), MonotonicNanos() + 1'000'000, spec.serve_rate,
        [&](std::size_t k) -> const std::string& {
          return cmds[round.open_base + k];
        },
        [](std::size_t) { return false; },
        [&](std::size_t k, const std::string& reply) {
          open_tally.Add(cmds[round.open_base + k], reply);
          run.script.hashes[round.open_base + k] = Fnv1a(reply);
        },
        &round.open_log);
    open_planned += round.open_n;
    const Samples after = scrape("metrics prom");
    const ScrapedSummary handled = ScrapeSummary(after, "daemon.request.ns");
    run.open_handle_sum_ns += handled.sum - before.sum;
    run.open_handle_count += handled.count - before.count;
    if (r == 0) run.prom_after_open = after;

    // 3. Closed-loop capacity.
    setups();
    RunCapacity(conn, round.cap_base, round.cap_n, &run);

    // 4. Bulk gen (+ churn) on this connection while the second one sends
    // open-loop scrapes from the same start time, until the bulk work is
    // done and this round's share of scrapes was sent. events_per_s is
    // the median over batches of events / batch wall time.
    setups();
    const std::uint64_t bulk_start = MonotonicNanos() + 1'000'000;
    std::atomic<bool> bulk_done{false};
    Tally bulk_tally;
    std::thread bulk([&] {
      SleepUntilNs(bulk_start);
      std::size_t i = round.bulk_base;
      for (std::size_t b = 0; b < round.batches; ++b) {
        const std::uint64_t t0 = MonotonicNanos();
        for (std::size_t c = 0; c < round.cmds_per_batch; ++c, ++i) {
          std::string reply;
          if (!SendAll(conn.fd(), opus::serve::EncodeFrame(cmds[i])) ||
              !opus::serve::ReadFrame(conn.fd(), &reply)) {
            Fail("bulk phase: no reply to '" + cmds[i] + "'");
          }
          bulk_tally.Add(cmds[i], reply);
          run.script.hashes[i] = Fnv1a(reply);
        }
        run.gen_events += spec.gen_events;
        run.bulk_rates.push_back(static_cast<double>(spec.gen_events) /
                                 Seconds(MonotonicNanos() - t0));
      }
      run.bulk_seconds += Seconds(MonotonicNanos() - bulk_start);
      bulk_done.store(true, std::memory_order_release);
    });
    const std::size_t ctl_base = ctl_sent;
    RunOpenLoop(
        ctl->fd(), bulk_start, spec.scrape_rate,
        [&](std::size_t k) { return ctl_request(ctl_base + k); },
        [&](std::size_t k) {
          return k >= round.min_scrapes &&
                 bulk_done.load(std::memory_order_acquire);
        },
        [&](std::size_t k, const std::string& reply) {
          ctl_tally.Add(ctl_request(ctl_base + k), reply);
        },
        &round.ctl_log);
    bulk.join();
    ctl_sent += round.ctl_log.due_ns.size();
    run.tally.Merge(bulk_tally);
  }
  ctl.reset();

  // Closed-loop pings: the protocol's own round trip.
  {
    const std::uint64_t t0 = MonotonicNanos();
    for (std::size_t i = 0; i < kPings; ++i) {
      run.tally.Add("ping", conn.Call("ping"));
    }
    run.ping_rtt_us =
        static_cast<double>(MonotonicNanos() - t0) / 1e3 / kPings;
  }
  run.phases_seconds = Seconds(MonotonicNanos() - phases_start);

  // Final state for the correctness gate and the per-layer scrape.
  run.status_final = scrape("status");
  run.prom_final = scrape("metrics prom");
  run.metrics_text = conn.Call("metrics text");
  run.audit = conn.Call("audit");
  run.tally.Add("metrics text", run.metrics_text);
  run.tally.Add("audit", run.audit);
  StopDaemon(&main, &run);
  run.peak_rss_mb = PeakRssMb() - baseline_mb;

  run.setup_s = Quantile(run.setup_samples, 0.5);
  run.open = SummarizeRounds(rounds, &Round::open_log);
  run.ctl = SummarizeRounds(rounds, &Round::ctl_log);
  run.unanswered += open_planned - run.open.answered - open_tally.errors;
  run.unanswered += ctl_sent - run.ctl.answered - ctl_tally.errors;
  run.tally.Merge(open_tally);
  run.tally.Merge(ctl_tally);
  return run;
}

// --- in-process replays ---------------------------------------------------

// Benchmark-side spans: per-name totals for every call, and a sampled,
// bounded list of spans written out as a Perfetto trace at the end.
class Tracer {
 public:
  struct Stat {
    std::uint64_t count = 0;
    double sum_ns = 0.0;
    double Mean() const { return count == 0 ? 0.0 : sum_ns / count; }
  };

  Tracer() : epoch_(MonotonicNanos()) {}

  Stat& stat(const std::string& name) { return stats_[name]; }

  // Counts the call [begin, end) under `stat`; keeps it as a span with
  // parent `parent` when `keep`. Returns the span id (0 when not kept).
  std::uint64_t Call(Stat& stat, const char* name, std::uint64_t begin,
                     std::uint64_t end, std::uint64_t parent, bool keep,
                     std::vector<std::pair<std::string, std::string>> attrs =
                         {}) {
    ++stat.count;
    stat.sum_ns += static_cast<double>(end - begin);
    return keep ? Span(name, begin, end, parent, std::move(attrs)) : 0;
  }

  std::uint64_t Span(const char* name, std::uint64_t begin, std::uint64_t end,
                     std::uint64_t parent,
                     std::vector<std::pair<std::string, std::string>> attrs =
                         {}) {
    if (spans_.size() >= kSpanCapacity) return 0;
    opus::obs::SpanRecord s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.name = name;
    s.begin_tick = begin > epoch_ ? begin - epoch_ : 0;
    s.end_tick = end > epoch_ ? end - epoch_ : 0;
    s.attrs = std::move(attrs);
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  // Opens a root span now; CloseRoot sets its end.
  std::uint64_t OpenRoot(const char* name) {
    const std::uint64_t now = MonotonicNanos();
    return Span(name, now, now, 0);
  }
  void CloseRoot(std::uint64_t id) {
    if (id != 0) spans_[id - 1].end_tick = MonotonicNanos() - epoch_;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << opus::obs::SpansToPerfettoJson(spans_) << '\n';
    return out.good();
  }
  std::size_t spans() const { return spans_.size(); }

 private:
  std::uint64_t epoch_;
  std::vector<opus::obs::SpanRecord> spans_;
  std::map<std::string, Stat> stats_;
};

std::unique_ptr<Daemon> MakeReplica(const WorkloadSpec& spec,
                                    std::uint64_t seed) {
  return std::make_unique<Daemon>(
      MakeDaemonConfig(spec, "replica.sock", "replica_flight.json"),
      MakeCatalog(spec, seed));
}

// First differing line of two exports, for the mismatch report.
std::string FirstDifference(const std::string& want, const std::string& got) {
  std::istringstream a(want), b(got);
  std::string la, lb;
  for (int line = 1;; ++line) {
    const bool ha = static_cast<bool>(std::getline(a, la));
    const bool hb = static_cast<bool>(std::getline(b, lb));
    if (!ha && !hb) return "lengths differ";
    if (ha != hb || la != lb) {
      return "line " + std::to_string(line) + ": socket '" +
             (ha ? la : "<end>") + "' vs in-process '" + (hb ? lb : "<end>") +
             "'";
    }
  }
}

// Compares a replica's final exports with the socket run's; fills *why.
bool SameFinalState(Daemon& replica, const SocketRun& run, const char* label,
                    std::string* why) {
  const std::string text = replica.HandleRequest("metrics text");
  if (text != run.metrics_text) {
    *why = std::string(label) + " replay: metrics text differs, " +
           FirstDifference(run.metrics_text, text);
    return false;
  }
  const std::string audit = replica.HandleRequest("audit");
  if (audit != run.audit) {
    *why = std::string(label) + " replay: audit differs, " +
           FirstDifference(run.audit, audit);
    return false;
  }
  return true;
}

// Tracks which user slots are active, as the daemon does, from control
// commands and their replies.
void TrackUsers(const std::vector<std::string>& tok, const std::string& reply,
                std::vector<bool>* active, std::uint64_t* changed) {
  std::uint64_t id = 0;
  if (tok[0] == "dropuser" && tok.size() == 2 && opus::ParseU64(tok[1], &id)) {
    (*active)[id] = false;
    *changed = id;
  } else if (tok[0] == "adduser" && reply.starts_with("ok id=")) {
    const std::string rest = reply.substr(6, reply.find(' ', 6) - 6);
    if (opus::ParseU64(rest, &id)) {
      (*active)[id] = true;
      *changed = id;
    }
  }
}

AccessEvent ServeEvent(const std::vector<std::string>& tok) {
  std::uint64_t user = 0, file = 0;
  opus::ParseU64(tok[1], &user);
  opus::ParseU64(tok[2], &file);
  AccessEvent ev;
  ev.user = static_cast<opus::cache::UserId>(user);
  ev.file = static_cast<opus::cache::FileId>(file);
  return ev;
}

struct DaemonLayer {
  double wall_s = 0.0;
  double serve_mean_ns = 0.0;
  double bulk_ns = 0.0;  // every bulk-phase command (gen and churn)
  double ping_ns = 0.0, ctl_ns = 0.0, snapshot_ns = 0.0, dump_ns = 0.0;
  std::uint64_t serve_n = 0;
};

// The correctness gate: replays the script through Daemon::HandleRequest.
// With a tracer, also times the daemon layer's own calls.
bool ReplayDaemon(const WorkloadSpec& spec, std::uint64_t seed,
                  const SocketRun& run, Tracer* tracer, DaemonLayer* out,
                  std::string* why) {
  const std::uint64_t t0 = MonotonicNanos();
  std::unique_ptr<Daemon> d = MakeReplica(spec, seed);
  Tracer::Stat local_serve, local_bulk;
  Tracer::Stat& serve = tracer ? tracer->stat("daemon.serve") : local_serve;
  Tracer::Stat& bulk = tracer ? tracer->stat("daemon.bulk") : local_bulk;
  const std::uint64_t root = tracer ? tracer->OpenRoot("replay.daemon") : 0;
  for (std::size_t i = 0; i < run.script.cmds.size(); ++i) {
    const std::string& cmd = run.script.cmds[i];
    const std::uint64_t b = MonotonicNanos();
    const std::string reply = d->HandleRequest(cmd);
    const std::uint64_t e = MonotonicNanos();
    if (Fnv1a(reply) != run.script.hashes[i]) {
      *why = "daemon replay: reply " + std::to_string(i) + " to '" + cmd +
             "' differs from the socket run (in-process: '" + reply + "')";
      return false;
    }
    if (tracer != nullptr) {
      const bool is_serve = cmd.starts_with("serve ");
      tracer->Call(is_serve ? serve : bulk, "daemon.HandleRequest", b, e,
                   root, !is_serve || i % kSpanSampleEvery == 0,
                   {{"cmd", cmd}});
    }
  }
  if (!SameFinalState(*d, run, "daemon", why)) return false;
  if (tracer != nullptr) {
    // Calls a client never replays but every request or scrape pays for.
    Tracer::Stat& ping = tracer->stat("daemon.ping");
    Tracer::Stat& ctl = tracer->stat("daemon.ctl");
    Tracer::Stat& snap = tracer->stat("obs.snapshot");
    Tracer::Stat& dump = tracer->stat("obs.dump");
    for (std::size_t i = 0; i < kPings; ++i) {
      const std::uint64_t b = MonotonicNanos();
      d->HandleRequest("ping");
      tracer->Call(ping, "daemon.ping", b, MonotonicNanos(), root,
                   i % kSpanSampleEvery == 0);
    }
    for (std::size_t i = 0; i < kCtlCalls; ++i) {
      const char* cmd = i % 2 == 0 ? "status" : "metrics prom";
      const std::uint64_t b = MonotonicNanos();
      d->HandleRequest(cmd);
      tracer->Call(ctl, "daemon.ctl", b, MonotonicNanos(), root, true,
                   {{"cmd", cmd}});
    }
    for (std::size_t i = 0; i < kCtlCalls; ++i) {
      const std::uint64_t b = MonotonicNanos();
      const opus::obs::MetricsSnapshot s = d->cluster().metrics().Snapshot();
      tracer->Call(snap, "obs.MetricsRegistry.Snapshot", b, MonotonicNanos(),
                   root, true,
                   {{"counters", std::to_string(s.counters.size())}});
    }
    for (std::size_t i = 0; i < kDumps; ++i) {
      const std::uint64_t b = MonotonicNanos();
      const std::string reply = d->HandleRequest("dump replay_dump.json");
      if (IsErr(reply)) {
        *why = "dump failed: " + reply;
        return false;
      }
      tracer->Call(dump, "obs.flight_dump", b, MonotonicNanos(), root, true);
    }
    tracer->CloseRoot(root);
    out->serve_mean_ns = serve.Mean();
    out->serve_n = serve.count;
    out->bulk_ns = bulk.sum_ns;
    out->ping_ns = ping.Mean();
    out->ctl_ns = ctl.Mean();
    out->snapshot_ns = snap.Mean();
    out->dump_ns = dump.Mean();
  }
  out->wall_s = Seconds(MonotonicNanos() - t0);
  return true;
}

struct EngineLayer {
  double wall_s = 0.0;
  double serve_mean_ns = 0.0;
  double gen_ns = 0.0;
  std::uint64_t gen_events = 0;
  std::uint64_t serve_n = 0;
};

// Drives ServingEngine::Serve directly: one event per `serve`, the whole
// batch per `gen`; control commands still go through HandleRequest.
bool ReplayEngine(const WorkloadSpec& spec, std::uint64_t seed,
                  const SocketRun& run, Tracer* tracer, EngineLayer* out,
                  std::string* why) {
  const std::uint64_t t0 = MonotonicNanos();
  std::unique_ptr<Daemon> d = MakeReplica(spec, seed);
  std::vector<bool> active(spec.users, true);
  Tracer::Stat& serve = tracer->stat("engine.serve");
  Tracer::Stat& gen = tracer->stat("engine.gen");
  const std::uint64_t root = tracer->OpenRoot("replay.engine");
  std::vector<AccessEvent> one(1);
  std::uint64_t gen_events = 0;
  for (std::size_t i = 0; i < run.script.cmds.size(); ++i) {
    const std::vector<std::string> tok = Tokens(run.script.cmds[i]);
    if (tok[0] == "serve") {
      one[0] = ServeEvent(tok);
      const std::uint64_t b = MonotonicNanos();
      d->engine().Serve(one);
      tracer->Call(serve, "engine.Serve", b, MonotonicNanos(), root,
                   i % kSpanSampleEvery == 0);
    } else if (tok[0] == "gen") {
      std::uint64_t n = 0, s = 0;
      opus::ParseU64(tok[1], &n);
      opus::ParseU64(tok[2], &s);
      const std::vector<AccessEvent> events =
          GenEvents(active, spec.files, n, s);
      const std::uint64_t b = MonotonicNanos();
      d->engine().Serve(events);
      tracer->Call(gen, "engine.Serve", b, MonotonicNanos(), root, true,
                   {{"events", std::to_string(events.size())}});
      gen_events += events.size();
    } else {
      std::uint64_t changed = 0;
      TrackUsers(tok, d->HandleRequest(run.script.cmds[i]), &active,
                 &changed);
    }
  }
  tracer->CloseRoot(root);
  if (!SameFinalState(*d, run, "engine", why)) return false;
  out->serve_mean_ns = serve.Mean();
  out->serve_n = serve.count;
  out->gen_ns = gen.sum_ns;
  out->gen_events = gen_events;
  out->wall_s = Seconds(MonotonicNanos() - t0);
  return true;
}

struct OracleLayer {
  double wall_s = 0.0;
  // Per source of the event (serve command, gen batch): OnAccess including
  // the windows it fired, and Read.
  double serve_access_ns = 0.0, serve_read_ns = 0.0;
  double gen_access_ns = 0.0, gen_read_ns = 0.0;
  std::uint64_t serve_events = 0, gen_events = 0;
  double on_access_ns = 0.0;  // calls that fired no window
  std::uint64_t on_access_n = 0;
  double read_ns = 0.0;
  std::uint64_t read_n = 0;
  std::vector<double> realloc_ms;
  double solve_ms = 0.0;
  // Out-of-band AllocateIncremental diagnostics, means per window.
  std::uint64_t windows = 0;
  double drift_ms = 0.0, cluster_ms = 0.0, star_ms = 0.0, tax_ms = 0.0,
         finalize_ms = 0.0, iterations = 0.0, solves = 0.0;
  std::uint64_t warm_windows = 0;
};

// The serial oracle: OpusMaster::OnAccess then CacheCluster::Read per
// event, which the engine is replay-equivalent to. At every window an
// out-of-band AllocateIncremental with diagnostics, on the same problem and
// a warm state kept in step with the master's, splits the solve by phase.
bool ReplayOracle(const WorkloadSpec& spec, std::uint64_t seed,
                  const SocketRun& run, Tracer* tracer, OracleLayer* out,
                  std::string* why) {
  const std::uint64_t t0 = MonotonicNanos();
  std::unique_ptr<Daemon> d = MakeReplica(spec, seed);
  opus::sim::OpusMaster& master = d->master();
  opus::cache::CacheCluster& cluster = d->cluster();
  std::vector<bool> active(spec.users, true);

  const opus::OpusPolicyTuning tuning;
  const std::unique_ptr<opus::CacheAllocator> alloc =
      opus::MakeAllocatorByName("opus", 0, &tuning);
  const auto* opus_alloc =
      dynamic_cast<const opus::OpusAllocator*>(alloc.get());
  opus::OpusWarmState warm;
  // File sizes in mean-file units, as the master poses the problem.
  std::vector<double> file_sizes;
  {
    const opus::cache::Catalog& cat = cluster.catalog();
    const double mean = static_cast<double>(cat.TotalBytes()) /
                        static_cast<double>(cat.size());
    bool heterogeneous = false;
    for (opus::cache::FileId f = 0; f < cat.size(); ++f) {
      file_sizes.push_back(static_cast<double>(cat.Get(f).size_bytes) / mean);
      heterogeneous |= std::fabs(file_sizes.back() - 1.0) > 1e-6;
    }
    if (!heterogeneous) file_sizes.clear();
  }

  Tracer::Stat& access = tracer->stat("master.on_access");
  Tracer::Stat& realloc = tracer->stat("master.realloc");
  Tracer::Stat& read = tracer->stat("cache.read");
  Tracer::Stat& oob = tracer->stat("core.allocate");
  const std::uint64_t root = tracer->OpenRoot("replay.oracle");
  std::uint64_t event_index = 0;

  const auto serve_event = [&](const AccessEvent& ev, bool from_gen) {
    const bool keep = event_index++ % kSpanSampleEvery == 0;
    const std::size_t before = master.reallocations();
    const std::uint64_t a = MonotonicNanos();
    master.OnAccess(ev);
    const std::uint64_t b = MonotonicNanos();
    const bool window = master.reallocations() != before;
    if (window) {
      const std::uint64_t id =
          tracer->Call(realloc, "master.OnAccess", a, b, root, true,
                       {{"window", "1"}});
      out->realloc_ms.push_back(static_cast<double>(b - a) / 1e6);
      opus::CachingProblem problem;
      problem.preferences = master.InferredPreferences();
      problem.capacity = master.capacity_units();
      problem.file_sizes = file_sizes;
      opus::OpusDiagnostics diag;
      const std::uint64_t c = MonotonicNanos();
      const opus::AllocationResult r =
          opus_alloc->AllocateIncremental(problem, &warm, &diag);
      tracer->Call(oob, "core.AllocateIncremental", c, MonotonicNanos(), id,
                   true,
                   {{"star_ms", opus::obs::FormatDouble(diag.star_wall_ms)},
                    {"tax_ms", opus::obs::FormatDouble(diag.tax_wall_ms)}});
      ++out->windows;
      out->drift_ms += diag.drift_wall_ms;
      out->cluster_ms += diag.cluster_wall_ms;
      out->star_ms += diag.star_wall_ms;
      out->tax_ms += diag.tax_wall_ms;
      out->finalize_ms += diag.finalize_wall_ms;
      out->iterations += static_cast<double>(diag.solver_iterations);
      out->solves += static_cast<double>(r.solver_solves);
      out->warm_windows += r.solver_warm_started ? 1 : 0;
    } else {
      tracer->Call(access, "master.OnAccess", a, b, root, keep);
    }
    const std::uint64_t c = MonotonicNanos();
    cluster.Read(ev.user, ev.file);
    const std::uint64_t e = MonotonicNanos();
    tracer->Call(read, "cache.Read", c, e, root, keep);
    const double access_ns = static_cast<double>(b - a);
    const double read_ns = static_cast<double>(e - c);
    if (from_gen) {
      out->gen_access_ns += access_ns;
      out->gen_read_ns += read_ns;
      ++out->gen_events;
    } else {
      out->serve_access_ns += access_ns;
      out->serve_read_ns += read_ns;
      ++out->serve_events;
    }
  };

  for (const std::string& cmd : run.script.cmds) {
    const std::vector<std::string> tok = Tokens(cmd);
    if (tok[0] == "serve") {
      serve_event(ServeEvent(tok), false);
    } else if (tok[0] == "gen") {
      std::uint64_t n = 0, s = 0;
      opus::ParseU64(tok[1], &n);
      opus::ParseU64(tok[2], &s);
      for (const AccessEvent& ev : GenEvents(active, spec.files, n, s)) {
        serve_event(ev, true);
      }
    } else {
      // Keep the out-of-band warm state in step with the master's: a
      // purged user forgets its row, a capacity reconfig goes cold.
      std::uint64_t changed = 0;
      const std::string reply = d->HandleRequest(cmd);
      TrackUsers(tok, reply, &active, &changed);
      if (tok[0] == "dropuser" || tok[0] == "adduser") {
        warm.ForgetUser(changed);
      } else if (tok[0] == "reconfig") {
        warm.Invalidate();
      }
    }
  }
  tracer->CloseRoot(root);
  if (!SameFinalState(*d, run, "oracle", why)) return false;
  out->on_access_ns = access.Mean();
  out->on_access_n = access.count;
  out->read_ns = read.Mean();
  out->read_n = read.count;
  for (const opus::obs::HistogramSample& h :
       cluster.metrics().Snapshot(/*include_volatile=*/true).histograms) {
    if (h.name == "master.solve.wall_sec" && h.count > 0) {
      out->solve_ms = h.sum / static_cast<double>(h.count) * 1e3;
    }
  }
  if (out->windows > 0) {
    const double w = static_cast<double>(out->windows);
    out->drift_ms /= w;
    out->cluster_ms /= w;
    out->star_ms /= w;
    out->tax_ms /= w;
    out->finalize_ms /= w;
    out->iterations /= w;
    out->solves /= w;
  }
  out->wall_s = Seconds(MonotonicNanos() - t0);
  return true;
}

// --- report ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t samples;
  bool in_result;  // part of the JSON result; the rest is printed only
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintReport(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-26s %16s %-6s n=%llu%s\n", m.name.c_str(),
                Num(m.value).c_str(), m.unit.c_str(),
                static_cast<unsigned long long>(m.samples),
                m.in_result ? "" : "  (printed only)");
  }
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.in_result) continue;
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + Num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::vector<Metric> EndToEndMetrics(const SocketRun& run) {
  const double bytes =
      static_cast<double>(run.tally.mem_bytes + run.tally.disk_bytes);
  const ScrapedSummary window =
      ScrapeSummary(run.prom_final, "serve.realloc.wall_ns");
  const std::uint64_t failed = run.tally.errors + run.unanswered;
  // Printed only: tails, and counts that can read 0. capacity_rps and
  // window_ms are pure serve-loop CPU time, which a shared host slows by up
  // to 1.45x for a whole run: their spread between runs exceeds any bound
  // the result may carry.
  return {
      {"setup_s", run.setup_s, "s", run.setup_samples.size(), true},
      {"lat_p50_us", run.open.p50_us, "us", run.open.answered, true},
      {"lat_p999_us", run.open.p999_us, "us", run.open.answered, false},
      {"slo_miss_pct", run.open.slo_miss_pct, "%", run.open.scheduled, false},
      {"capacity_rps", Quantile(run.capacity_rates, 0.5), "req/s",
       run.capacity_rates.size(), false},
      {"events_per_s", Quantile(run.bulk_rates, 0.5), "ev/s",
       run.bulk_rates.size(), true},
      {"ctl_p50_us", run.ctl.p50_us, "us", run.ctl.answered, true},
      {"ctl_p99_us", run.ctl.p99_us, "us", run.ctl.answered, false},
      {"window_ms", window.p50 / 1e6, "ms",
       static_cast<std::uint64_t>(window.count), false},
      {"sim_read_ms",
       ScrapeSummary(run.prom_final, "cluster.read.latency_sec").Mean() * 1e3,
       "ms", 1, true},
      {"mem_byte_ratio",
       bytes > 0 ? static_cast<double>(run.tally.mem_bytes) / bytes : 0.0,
       "ratio", 1, true},
      {"peak_rss_mb", run.peak_rss_mb, "MiB", 1, true},
      {"error_pct",
       100.0 * static_cast<double>(failed) /
           static_cast<double>(std::max<std::uint64_t>(1, run.tally.attempted)),
       "%", run.tally.attempted, false},
      {"gen_late_p99_ms", run.open.gen_late_p99_ms, "ms", run.open.scheduled,
       false},
      {"open_backlog_at_end", static_cast<double>(run.open.backlog_at_end),
       "count", 1, false},
      {"ctl_gen_late_p99_ms", run.ctl.gen_late_p99_ms, "ms", run.ctl.scheduled,
       false},
      {"ctl_backlog_at_end", static_cast<double>(run.ctl.backlog_at_end),
       "count", 1, false},
  };
}

std::vector<Metric> LayerMetrics(const WorkloadSpec& spec,
                                 const SocketRun& run, const DaemonLayer& dl,
                                 const EngineLayer& el,
                                 const OracleLayer& ol) {
  const ScrapedSummary req1 =
      ScrapeSummary(run.prom_after_open, "daemon.request.ns");
  const auto final_summary = [&](const char* name) {
    return ScrapeSummary(run.prom_final, name);
  };
  const ScrapedSummary depth = final_summary("daemon.pipeline.depth");
  const ScrapedSummary read = final_summary("serve.read.managed_ns");
  const ScrapedSummary drain = final_summary("serve.drain.wall_ns");
  const ScrapedSummary batch = final_summary("serve.batch.events");
  const ScrapedSummary lock = final_summary("serve.shard.lock_wait_ns");
  const double open_handle_ns =
      run.open_handle_count > 0.0
          ? run.open_handle_sum_ns / run.open_handle_count
          : 0.0;
  const auto n = [](double c) { return static_cast<std::uint64_t>(c); };

  const double realloc_mean = Mean(ol.realloc_ms);
  const double realloc_p50 = Quantile(ol.realloc_ms, 0.5);
  const double realloc_max = Quantile(ol.realloc_ms, 1.0);

  // Reconciliation along the workload's main path: per bulk event when
  // bulk work has the larger share of the run, else per `serve` request
  // over the open-loop phases.
  double e2e_ns = 0.0;
  std::vector<double> layers;
  const double wire_ns = run.ping_rtt_us * 1e3 - dl.ping_ns;
  if (spec.bulk_share > spec.open_share) {
    // The engine and oracle replays served the same events.
    const double ev =
        static_cast<double>(std::max<std::uint64_t>(1, ol.gen_events));
    const double bulk_cmds =
        static_cast<double>(run.script.cmds.size() - ol.serve_events);
    e2e_ns = run.bulk_seconds * 1e9 / static_cast<double>(run.gen_events);
    const double oracle = (ol.gen_access_ns + ol.gen_read_ns) / ev;
    const double engine = el.gen_ns / ev;
    layers = {wire_ns * bulk_cmds / ev,   // protocol
              dl.bulk_ns / ev - engine,   // daemon self
              engine - oracle,            // engine self
              ol.gen_access_ns / ev,      // master
              ol.gen_read_ns / ev};       // cache
  } else {
    const double ev =
        static_cast<double>(std::max<std::uint64_t>(1, ol.serve_events));
    const double oracle = (ol.serve_access_ns + ol.serve_read_ns) / ev;
    e2e_ns = run.open.mean_rtt_us * 1e3;
    layers = {wire_ns, dl.serve_mean_ns - el.serve_mean_ns,
              el.serve_mean_ns - oracle, ol.serve_access_ns / ev,
              ol.serve_read_ns / ev};
  }
  const double traced_wall = dl.wall_s + el.wall_s + ol.wall_s;
  const std::uint64_t w = ol.windows;
  return {
      {"protocol.wire_us", run.open.p50_rtt_us - req1.p50 / 1e3, "us",
       run.open.answered, true},
      {"protocol.pipeline_depth", depth.p50, "count", n(depth.count), true},
      {"daemon.handle_us", open_handle_ns / 1e3, "us",
       n(run.open_handle_count), true},
      {"daemon.handle_p99_us", req1.p99 / 1e3, "us", n(req1.count), true},
      {"daemon.ping_us", dl.ping_ns / 1e3, "us", kPings, true},
      {"daemon.ctl_handle_us", dl.ctl_ns / 1e3, "us", kCtlCalls, true},
      {"engine.serve_us", el.serve_mean_ns / 1e3, "us", el.serve_n, true},
      {"engine.bulk_events_per_s",
       el.gen_ns > 0 ? static_cast<double>(el.gen_events) / (el.gen_ns / 1e9)
                     : 0.0,
       "ev/s", el.gen_events, true},
      {"engine.read_ns", read.Mean(), "ns", n(read.count), true},
      {"engine.drain_ms", drain.Mean() / 1e6, "ms", n(drain.count), true},
      {"engine.batch_events", batch.Mean(), "count", n(batch.count), true},
      {"engine.lock_wait_ns", lock.Mean(), "ns", n(lock.count), true},
      {"master.on_access_ns", ol.on_access_ns, "ns", ol.on_access_n, true},
      {"master.realloc_ms_p50", realloc_p50, "ms", ol.realloc_ms.size(), true},
      {"master.realloc_ms_max", realloc_max, "ms", ol.realloc_ms.size(), true},
      {"master.solve_ms", ol.solve_ms, "ms", ol.realloc_ms.size(), true},
      {"master.apply_ms", realloc_mean - ol.solve_ms, "ms",
       ol.realloc_ms.size(), true},
      {"core.drift_ms", ol.drift_ms, "ms", w, true},
      // 0 unless the daemon runs with user aggregation, which is off by
      // default: printed, not part of the result.
      {"core.cluster_ms", ol.cluster_ms, "ms", w, false},
      {"core.star_ms", ol.star_ms, "ms", w, true},
      {"core.tax_ms", ol.tax_ms, "ms", w, true},
      {"core.finalize_ms", ol.finalize_ms, "ms", w, true},
      {"core.pf_iterations", ol.iterations, "count", w, true},
      {"core.solves", ol.solves, "count", w, true},
      {"core.warm_start_ratio",
       w > 0 ? static_cast<double>(ol.warm_windows) / static_cast<double>(w)
             : 0.0,
       "ratio", w, true},
      {"cache.read_ns", ol.read_ns, "ns", ol.read_n, true},
      {"cache.pin_failures",
       SumMatching(run.prom_final, "opus_cluster_worker_", "_pin_failures"),
       "count", 1, true},
      {"cache.evictions",
       SumMatching(run.prom_final, "opus_cluster_worker_", "_evictions"),
       "count", 1, true},
      {"obs.snapshot_us", dl.snapshot_ns / 1e3, "us", kCtlCalls, true},
      {"obs.flight_trips",
       run.status_final.count("flight_trips") != 0
           ? run.status_final.at("flight_trips")
           : 0.0,
       "count", 1, true},
      {"obs.flight_dump_ms", dl.dump_ns / 1e6, "ms", kDumps, true},
      {"unattributed_pct", UnattributedPct(e2e_ns, layers), "%", 1, true},
      {"trace.wall_ratio", traced_wall / run.phases_seconds, "ratio", 1, true},
      {"reconcile.e2e_us", e2e_ns / 1e3, "us", 1, false},
      {"reconcile.protocol_us", layers[0] / 1e3, "us", 1, false},
      {"reconcile.daemon_self_us", layers[1] / 1e3, "us", 1, false},
      {"reconcile.engine_self_us", layers[2] / 1e3, "us", 1, false},
      {"reconcile.master_us", layers[3] / 1e3, "us", 1, false},
      {"reconcile.cache_us", layers[4] / 1e3, "us", 1, false},
  };
}

void PrintHost(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
               bool trace, const std::string& git_sha) {
  std::printf(
      "host {\"nproc\": %ld, \"compiler\": \"g++ %s\", \"build_type\": "
      "\"%s\", \"git_sha\": \"%s\", \"engine_threads\": %u, "
      "\"pipeline_depth\": %zu}\n",
      ::sysconf(_SC_NPROCESSORS_ONLN), __VERSION__, PERFBENCH_BUILD_TYPE,
      git_sha.c_str(), kEngineThreads, kPipelineDepth);
  const PhasePlan plan = PlanPhases(spec, seconds);
  std::printf(
      "workload %s seed=%llu seconds=%g trace=%d users=%u files=%u "
      "file_mb=%u-%u cache_mb=%llu interval=%zu window=%zu serve_rate=%g "
      "rounds=%zu open_requests=%zu capacity_requests=%zu gen_batches=%zu "
      "gen_events=%llu churn=%d scrape_rate=%g\n",
      spec.name, static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0,
      spec.users, spec.files, spec.min_file_mb, spec.max_file_mb,
      static_cast<unsigned long long>(spec.cache_mb), spec.update_interval,
      spec.learning_window, spec.serve_rate, plan.rounds, plan.open_requests,
      plan.capacity_requests, plan.gen_batches,
      static_cast<unsigned long long>(spec.gen_events), spec.churn ? 1 : 0,
      spec.scrape_rate);
}

int Main(int argc, char** argv) {
  std::string workload, trace_out, git_sha = "unknown";
  std::uint64_t seed = 0, trace = 0;
  double seconds = 0.0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    bool ok = true;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      ok = have_seed = opus::ParseU64(value, &seed);
    } else if (flag == "--seconds") {
      ok = opus::ParseFiniteDouble(value, &seconds) && seconds > 0.0;
    } else if (flag == "--trace") {
      ok = opus::ParseU64(value, &trace) && trace <= 1;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      ok = false;
    }
    if (!ok) Fail("bad flag " + flag + " " + value);
  }
  if (argc % 2 == 0) Fail("flags come in pairs");
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr || !have_seed || seconds <= 0.0) {
    Fail("usage: perfbench_e2e --workload NAME --seed N --seconds S "
         "--trace 0|1 [--trace-out FILE] [--git-sha SHA]");
  }
  // Wake the open-loop senders on time, not up to 50 us late.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  // Create the engine's shared pool from the pool CPU, so its workers
  // inherit that CPU; then move to the client's.
  PinSelf(Cpus().pool);
  opus::ThreadPool::Shared();
  PinSelf(Cpus().client);
  PrintHost(*spec, seed, seconds, trace == 1, git_sha);

  SocketRun run = RunOverSocket(*spec, seed, seconds);
  const std::uint64_t failed = run.tally.errors + run.unanswered;

  // Open-loop honesty: a generator that fell behind its own schedule, or
  // too few samples for p99.9, gives no result.
  if (GeneratorBehind(run.open, LagLimitNs(spec->serve_rate)) ||
      GeneratorBehind(run.ctl, LagLimitNs(spec->scrape_rate))) {
    Fail("invalid run: the open-loop generator fell behind its schedule "
         "(serve lag p99 " + Num(run.open.gen_late_p99_ms) + " ms, scrape lag "
         "p99 " + Num(run.ctl.gen_late_p99_ms) + " ms)", 3);
  }
  if (run.open.answered < 10000) {
    Fail("invalid run: " + std::to_string(run.open.answered) +
         " open-loop samples, p99.9 needs 10000 (raise --seconds)", 3);
  }

  std::string why;
  bool correct = run.tally.errors == 0 && run.unanswered == 0;
  if (!correct) {
    why = "unexpected error or missing reply: " +
          (run.tally.first_error.empty() ? std::to_string(run.unanswered) +
                                               " unanswered"
                                         : run.tally.first_error);
  }
  std::vector<Metric> metrics = EndToEndMetrics(run);
  for (Metric& m : metrics) m.in_result = m.in_result && trace == 0;
  DaemonLayer dl;
  if (trace == 0) {
    correct = correct && ReplayDaemon(*spec, seed, run, nullptr, &dl, &why);
  } else {
    Tracer tracer;
    EngineLayer el;
    OracleLayer ol;
    correct = correct && ReplayDaemon(*spec, seed, run, &tracer, &dl, &why) &&
              ReplayEngine(*spec, seed, run, &tracer, &el, &why) &&
              ReplayOracle(*spec, seed, run, &tracer, &ol, &why);
    if (correct) {
      for (Metric& m : LayerMetrics(*spec, run, dl, el, ol)) {
        metrics.push_back(std::move(m));
      }
      if (!trace_out.empty()) {
        if (!tracer.Write(trace_out)) Fail("cannot write " + trace_out);
        std::printf("trace %s spans=%zu\n", trace_out.c_str(),
                    tracer.spans());
      }
    }
  }
  std::printf("timing socket_phases_s=%s correctness_replay_s=%s\n",
              Num(run.phases_seconds).c_str(), Num(dl.wall_s).c_str());
  PrintReport(metrics);
  if (!correct) {
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
                 why.c_str());
  }
  PrintResult(correct, run.tally.attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
