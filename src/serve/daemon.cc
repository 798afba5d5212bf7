#include "serve/daemon.h"

#include <algorithm>
#include <cerrno>
#include <deque>
#include <sstream>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/policy_factory.h"
#include "obs/prometheus.h"
#include "serve/protocol.h"
#include "workload/trace.h"

namespace opus::serve {
namespace {

std::vector<std::string> Tokenize(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

std::string Err(const std::string& reason) { return "err " + reason; }

// Collapses a pretty-printed JSON document onto one line so it can be a
// JSONL record. Safe for metric exports: no string in them contains a
// newline, so stripping '\n' + following indent never touches data.
std::string CompactJson(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (json[i] == '\n') {
      while (i + 1 < json.size() && json[i + 1] == ' ') ++i;
      continue;
    }
    out.push_back(json[i]);
  }
  return out;
}

constexpr char kHelp[] =
    "ok\n"
    "ping | help | status | metrics [text|json|csv|prom] | audit\n"
    "dump [PATH] | serve USER FILE | gen N SEED\n"
    "reconfig policy NAME | reconfig capacity UNITS\n"
    "adduser [NAME] | dropuser ID | shutdown";

cache::ClusterConfig ForceTracingOff(cache::ClusterConfig config) {
  config.span_sample_every = 0;  // engine contract; see daemon.h
  return config;
}

// Events per background-job slice: long `gen` commands run one batch per
// poll-loop wake so control traffic interleaves at these boundaries. A
// `gen` at or under this size just runs synchronously.
constexpr std::size_t kGenBatch = 2048;

// Per-connection write-buffer bound: past this the loop stops reading the
// connection (backpressure) until the client drains replies.
constexpr std::size_t kMaxOutBuffered = 8u << 20;  // 8 MiB

// How long shutdown keeps flushing buffered replies before closing.
constexpr std::uint64_t kShutdownFlushNs = 2'000'000'000;  // 2 s

}  // namespace

Daemon::Daemon(DaemonConfig config, cache::Catalog catalog)
    : config_(std::move(config)),
      cluster_(ForceTracingOff(config_.cluster), std::move(catalog)),
      recorder_(obs::FlightRecorderConfig{config_.flight_capacity}) {
  allocators_.push_back(MakeAllocatorByName(config_.policy,
                                            config_.tax_threads,
                                            &config_.opus_tuning));
  OPUS_CHECK_MSG(allocators_.back() != nullptr,
                 "unknown policy in DaemonConfig");
  master_ = std::make_unique<sim::OpusMaster>(allocators_.back().get(),
                                              &cluster_, config_.master);
  const std::uint32_t users = cluster_.config().num_users;
  for (std::uint32_t u = 0; u < users; ++u) {
    master_->RegisterClient("user" + std::to_string(u));
  }
  user_active_.assign(users, true);
  config_.engine.telemetry = &telemetry_;
  config_.engine.recorder = &recorder_;
  engine_ = std::make_unique<ServingEngine>(&cluster_, master_.get(),
                                            config_.engine);
  daemon_request_ns_ = &telemetry_.histogram("daemon.request.ns");
  daemon_pipeline_depth_ = &telemetry_.histogram("daemon.pipeline.depth");
  start_ns_ = obs::MonotonicNanos();
  last_stats_ns_ = start_ns_;
  if (!config_.stats_path.empty()) {
    stats_out_.open(config_.stats_path, std::ios::trunc);
    stats_prev_ = cluster_.metrics().Snapshot(/*include_volatile=*/true);
  }
}

std::string Daemon::HandleRequest(const std::string& request) {
  const std::uint64_t begin = obs::MonotonicNanos();
  std::string reply = HandleRequestInner(request);
  const std::uint64_t end = obs::MonotonicNanos();
  daemon_request_ns_->Record(end - begin);
  std::istringstream head(request);
  std::string cmd;
  head >> cmd;
  recorder_.RecordSpan("daemon.request", begin, end,
                       {{"cmd", cmd},
                        {"ok", reply.rfind("err", 0) == 0 ? "0" : "1"}});
  CheckAnomalies();
  return reply;
}

std::string Daemon::HandleRequestInner(const std::string& request) {
  const std::vector<std::string> tokens = Tokenize(request);
  if (tokens.empty()) return Err("empty command");
  const std::string& cmd = tokens[0];
  const std::vector<std::string> args(tokens.begin() + 1, tokens.end());
  if (cmd == "ping") return "ok pong";
  if (cmd == "help") return kHelp;
  if (cmd == "status") return HandleStatus();
  if (cmd == "metrics") return HandleMetrics(args);
  if (cmd == "audit") return "ok\n" + master_->audit_report().ToJson();
  if (cmd == "dump") return HandleDump(args);
  if (cmd == "serve") return HandleServe(args);
  if (cmd == "gen") return HandleGen(args);
  if (cmd == "reconfig") return HandleReconfig(args);
  if (cmd == "adduser") return HandleAddUser(args);
  if (cmd == "dropuser") return HandleDropUser(args);
  if (cmd == "shutdown") {
    shutdown_ = true;
    return "ok bye";
  }
  return Err("unknown command '" + cmd + "' (try: help)");
}

std::string Daemon::HandleStatus() const {
  std::size_t active = 0;
  for (const bool a : user_active_) active += a ? 1 : 0;
  // The solver reuse counters live in the deterministic registry; status
  // surfaces them by scanning a snapshot (counter() would lazily create,
  // and this method is const).
  const obs::MetricsSnapshot snap = cluster_.metrics().Snapshot();
  const auto counter_of = [&snap](const std::string& name) -> std::uint64_t {
    for (const obs::CounterSample& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  };
  const obs::AuditReport& audit = master_->audit_report();
  std::ostringstream out;
  out << "ok\n"
      << "policy=" << master_->policy_name() << '\n'
      << "managed=" << (cluster_.managed() ? 1 : 0) << '\n'
      << "users=" << active << '/' << user_active_.size() << '\n'
      << "workers=" << cluster_.num_alive_workers() << '/'
      << cluster_.num_workers() << '\n'
      << "threads=" << engine_->threads() << '\n'
      << "capacity_units=" << master_->capacity_units() << '\n'
      << "used_bytes=" << cluster_.UsedBytes() << '\n'
      << "events_served=" << events_served_ << '\n'
      << "reallocations=" << master_->reallocations() << '\n'
      << "solver_solves=" << counter_of("master.solver.solves") << '\n'
      << "solver_warm_starts=" << counter_of("master.solver.warm_starts")
      << '\n'
      << "solver_delta_windows=" << counter_of("master.solver.delta_windows")
      << '\n'
      << "solver_delta_resolved="
      << counter_of("master.solver.delta_resolved") << '\n'
      << "solver_delta_reused=" << counter_of("master.solver.delta_reused")
      << '\n'
      << "audit_windows=" << audit.windows.size() << '\n'
      << "audit_violations=" << audit.total_violations << '\n'
      << "audit_clean=" << (audit.total_violations == 0 ? 1 : 0) << '\n'
      << "flight_trips=" << flight_trips_;
  return out.str();
}

std::string Daemon::HandleMetrics(
    const std::vector<std::string>& args) const {
  obs::ExportFormat format = obs::ExportFormat::kText;
  if (!args.empty()) {
    if (args[0] == "text") {
      format = obs::ExportFormat::kText;
    } else if (args[0] == "json") {
      format = obs::ExportFormat::kJson;
    } else if (args[0] == "csv") {
      format = obs::ExportFormat::kCsv;
    } else if (args[0] == "prom") {
      // The live-scrape format: full snapshot (volatile included — a scrape
      // wants wall times) plus the runtime latency summaries. Deterministic
      // exports keep using text/json/csv of the non-volatile snapshot.
      return "ok\n" + obs::MetricsToPrometheus(
                          cluster_.metrics().Snapshot(
                              /*include_volatile=*/true),
                          telemetry_.Snapshot());
    } else {
      return Err("unknown metrics format '" + args[0] +
                 "' (text|json|csv|prom)");
    }
  }
  return "ok\n" + cluster_.metrics().Snapshot().Export(format);
}

std::string Daemon::HandleDump(const std::vector<std::string>& args) {
  if (args.size() > 1) return Err("usage: dump [PATH]");
  const std::string& path = args.empty() ? config_.flight_path : args[0];
  std::size_t spans = 0;
  if (!WriteFlightDump(path, &spans)) {
    return Err("cannot write flight dump to '" + path + "'");
  }
  return "ok dumped=" + path + " spans=" + std::to_string(spans);
}

std::string Daemon::HandleServe(const std::vector<std::string>& args) {
  if (args.size() != 2) return Err("usage: serve USER FILE");
  std::uint64_t user = 0, file = 0;
  if (!ParseU64(args[0], &user)) return Err("bad user id '" + args[0] + "'");
  if (!ParseU64(args[1], &file)) return Err("bad file id '" + args[1] + "'");
  if (user >= user_active_.size()) return Err("user id out of range");
  if (!user_active_[user]) return Err("user " + args[0] + " is dropped");
  if (file >= cluster_.catalog().size()) return Err("file id out of range");
  workload::AccessEvent event;
  event.user = static_cast<cache::UserId>(user);
  event.file = static_cast<cache::FileId>(file);
  const ServeStats stats = engine_->Serve({event});
  events_served_ += stats.events;
  std::ostringstream out;
  out << "ok mem_bytes=" << stats.bytes_from_memory
      << " disk_bytes=" << stats.bytes_from_disk
      << " effective_hit=" << stats.effective_hit_sum
      << " reallocations=" << stats.reallocations;
  return out.str();
}

std::string Daemon::PrepareGen(const std::vector<std::string>& args,
                               std::vector<workload::AccessEvent>* events) {
  if (args.size() != 2) return Err("usage: gen N SEED");
  std::uint64_t n = 0, seed = 0;
  if (!ParseU64(args[0], &n) || n == 0) {
    return Err("bad event count '" + args[0] + "'");
  }
  if (!ParseU64(args[1], &seed)) return Err("bad seed '" + args[1] + "'");
  std::vector<cache::UserId> active;
  for (std::size_t u = 0; u < user_active_.size(); ++u) {
    if (user_active_[u]) active.push_back(static_cast<cache::UserId>(u));
  }
  if (active.empty()) return Err("no active users");
  // Synthetic per-user preferences: distinct skews keyed off the user id,
  // deterministic given (active set, seed).
  const std::size_t files = cluster_.catalog().size();
  Matrix prefs(active.size(), files, 0.0);
  for (std::size_t i = 0; i < active.size(); ++i) {
    for (std::size_t j = 0; j < files; ++j) {
      prefs(i, j) = 1.0 / (1.0 + ((j + 3 * active[i]) % files));
    }
  }
  Rng rng(seed);
  workload::Trace trace =
      workload::GenerateTrace(workload::TruthfulSpecs(prefs),
                              static_cast<std::size_t>(n), rng);
  // TruthfulSpecs users are dense 0..k-1; map back to the active UserIds.
  for (workload::AccessEvent& event : trace.events) {
    event.user = active[event.user];
  }
  *events = std::move(trace.events);
  return "";
}

std::string Daemon::FormatGenReply(const ServeStats& stats) {
  std::ostringstream out;
  out << "ok events=" << stats.events
      << " mem_bytes=" << stats.bytes_from_memory
      << " disk_bytes=" << stats.bytes_from_disk
      << " reallocations=" << stats.reallocations;
  return out.str();
}

std::string Daemon::HandleGen(const std::vector<std::string>& args) {
  std::vector<workload::AccessEvent> events;
  const std::string err = PrepareGen(args, &events);
  if (!err.empty()) return err;
  const ServeStats stats = engine_->Serve(events);
  events_served_ += stats.events;
  return FormatGenReply(stats);
}

std::string Daemon::HandleReconfig(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    return Err("usage: reconfig policy NAME | reconfig capacity UNITS");
  }
  if (args[0] == "policy") {
    std::unique_ptr<CacheAllocator> next = MakeAllocatorByName(
        args[1], config_.tax_threads, &config_.opus_tuning);
    if (next == nullptr) {
      std::string known;
      for (const std::string& name : KnownPolicyNames()) {
        if (!known.empty()) known += '|';
        known += name;
      }
      return Err("unknown policy '" + args[1] + "' (" + known + ")");
    }
    // Span the swap itself so an anomaly dump shows "policy changed here"
    // right before any latency/fairness shift (drain/realloc spans come
    // from the engine; this is the control-plane cause).
    const std::string from = master_->policy_name();
    const std::uint64_t t0 = obs::MonotonicNanos();
    allocators_.push_back(std::move(next));
    master_->set_allocator(allocators_.back().get());
    recorder_.RecordSpan("reconfig.policy", t0, obs::MonotonicNanos(),
                         {{"from", from}, {"to", master_->policy_name()}});
    return "ok policy=" + master_->policy_name();
  }
  if (args[0] == "capacity") {
    double units = 0.0;
    if (!ParseFiniteDouble(args[1], &units) || units < 0.0) {
      return Err("bad capacity '" + args[1] + "'");
    }
    std::ostringstream from;
    from << master_->capacity_units();
    const std::uint64_t t0 = obs::MonotonicNanos();
    master_->set_capacity_units(units);
    std::ostringstream out;
    out << "ok capacity_units=" << master_->capacity_units();
    std::ostringstream to;
    to << master_->capacity_units();
    recorder_.RecordSpan("reconfig.capacity", t0, obs::MonotonicNanos(),
                         {{"from", from.str()}, {"to", to.str()}});
    return out.str();
  }
  return Err("unknown reconfig target '" + args[0] + "'");
}

std::string Daemon::HandleAddUser(const std::vector<std::string>& args) {
  if (args.size() > 1) return Err("usage: adduser [NAME]");
  for (std::size_t u = 0; u < user_active_.size(); ++u) {
    if (!user_active_[u]) {
      user_active_[u] = true;
      const auto id = static_cast<cache::UserId>(u);
      // A revived slot is a new tenant: take the requested name (the old
      // one is stale) and double-check no departed-tenant state leaks into
      // its first window (dropuser already purged; a slot inactive since
      // startup has nothing to purge, so this is idempotent).
      if (!args.empty()) master_->RenameClient(id, args[0]);
      master_->PurgeUser(id);
      recorder_.RecordEvent("user.add", {{"id", std::to_string(u)},
                                         {"name", master_->client_name(id)}});
      return "ok id=" + std::to_string(u) + " name=" +
             master_->client_name(id);
    }
  }
  return Err("no free user slots (cluster num_users=" +
             std::to_string(user_active_.size()) + ")");
}

std::string Daemon::HandleDropUser(const std::vector<std::string>& args) {
  if (args.size() != 1) return Err("usage: dropuser ID");
  std::uint64_t user = 0;
  if (!ParseU64(args[0], &user)) return Err("bad user id '" + args[0] + "'");
  if (user >= user_active_.size()) return Err("user id out of range");
  if (!user_active_[user]) return Err("user " + args[0] + " already dropped");
  user_active_[user] = false;
  // Forget the departed tenant's learned state: its window accesses,
  // explicit preference reports, and warm-state row. Without this the next
  // window keeps allocating (and taxing) on behalf of a user that no
  // longer exists — and a later adduser revival would inherit its history.
  master_->PurgeUser(static_cast<cache::UserId>(user));
  recorder_.RecordEvent("user.drop", {{"id", args[0]}});
  return "ok dropped=" + args[0];
}

bool Daemon::WriteFlightDump(const std::string& path,
                             std::size_t* spans) const {
  const std::vector<obs::LatencySample> latency = telemetry_.Snapshot();
  if (spans != nullptr) *spans = recorder_.size() + latency.size();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << recorder_.DumpPerfettoJson(latency) << '\n';
  return out.good();
}

void Daemon::CheckAnomalies() {
  std::string reason;
  const obs::AuditReport& audit = master_->audit_report();
  if (audit.total_violations > last_audit_violations_) {
    reason = "audit_violation";
  }
  last_audit_violations_ = audit.total_violations;
  const std::uint64_t pins = cluster_.control_plane_stats().pin_failures;
  if (reason.empty() && pins > last_pin_failures_) reason = "pin_failure";
  last_pin_failures_ = pins;
  if (reason.empty() && config_.p99_threshold_ms > 0.0 && !p99_tripped_) {
    const double limit_ns = config_.p99_threshold_ms * 1e6;
    for (const char* name :
         {"serve.read.managed_ns", "serve.read.unmanaged_ns"}) {
      const obs::LogLinearHistogram* h = telemetry_.Find(name);
      if (h != nullptr && h->count() > 0 &&
          static_cast<double>(h->ValueAtQuantile(0.99)) > limit_ns) {
        reason = "p99_threshold";
        p99_tripped_ = true;  // latency stays high; trip once, not per request
        break;
      }
    }
  }
  if (reason.empty()) return;
  ++flight_trips_;
  // Record the anomaly marker first so the dump itself contains it.
  recorder_.RecordEvent("daemon.anomaly",
                        {{"reason", reason},
                         {"trip", std::to_string(flight_trips_)}});
  WriteFlightDump(config_.flight_path, nullptr);
}

void Daemon::StatsTick() {
  if (!stats_out_.is_open()) return;
  const std::uint64_t now = obs::MonotonicNanos();
  if (now - last_stats_ns_ < config_.stats_interval_ms * 1000000ull) return;
  last_stats_ns_ = now;
  obs::MetricsSnapshot cur =
      cluster_.metrics().Snapshot(/*include_volatile=*/true);
  const obs::MetricsSnapshot delta = obs::DiffSnapshots(stats_prev_, cur);
  stats_prev_ = std::move(cur);
  stats_out_ << "{\"seq\":" << stats_seq_++
             << ",\"uptime_ms\":" << (now - start_ns_) / 1000000ull
             << ",\"events_served\":" << events_served_
             << ",\"reallocations\":" << master_->reallocations()
             << ",\"metrics\":" << CompactJson(delta.ToJson())
             << ",\"latency\":"
             << obs::RuntimeTelemetry::SamplesToJson(telemetry_.Snapshot())
             << "}\n";
  stats_out_.flush();
}

int Daemon::Run() {
  const int listen_fd = ListenUnix(config_.socket_path);
  if (listen_fd < 0) return 1;
  int tcp_fd = -1;
  if (config_.tcp_port >= 0) {
    std::uint16_t bound = 0;
    tcp_fd = ListenTcp(static_cast<std::uint16_t>(config_.tcp_port),
                       /*backlog=*/8, &bound);
    if (tcp_fd < 0) {
      ::close(listen_fd);
      ::unlink(config_.socket_path.c_str());
      return 1;
    }
    tcp_bound_port_.store(static_cast<int>(bound),
                          std::memory_order_release);
  }

  // Pipelined I/O state: every accepted fd is non-blocking, reads
  // accumulate in a FrameSplitter, replies accumulate in an out buffer
  // drained on POLLOUT — a half-sent frame or an undrained reply on one
  // connection never blocks the others.
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    FrameSplitter in;
    std::string out;          // encoded reply frames not yet written
    std::size_t out_off = 0;  // sent prefix of out
    bool has_job = false;     // a gen job owns this conn's reply slot
    bool closed = false;
  };
  // A long `gen` sliced into kGenBatch-event ServeRange calls, one per
  // loop wake; splitting is replay-identical to one Serve (boundaries
  // derive from master state that carries across calls).
  struct GenJob {
    std::uint64_t conn_id = 0;
    std::vector<workload::AccessEvent> events;
    std::size_t pos = 0;
    ServeStats stats;
    std::uint64_t begin_ns = 0;
  };
  std::deque<Conn> conns;
  std::deque<GenJob> jobs;
  std::uint64_t next_conn_id = 1;

  const auto find_conn = [&conns](std::uint64_t id) -> Conn* {
    for (Conn& c : conns) {
      if (c.id == id && !c.closed) return &c;
    }
    return nullptr;
  };
  const auto enqueue = [](Conn& c, std::string_view reply) {
    c.out += EncodeFrame(reply);
  };
  // Writes as much buffered output as the socket accepts right now.
  // False = dead peer. MSG_NOSIGNAL: a raced client close must surface as
  // EPIPE here, not kill the daemon with SIGPIPE.
  const auto flush_out = [](Conn& c) -> bool {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return errno == EAGAIN || errno == EWOULDBLOCK;
      }
      c.out_off += static_cast<std::size_t>(n);
    }
    c.out.clear();
    c.out_off = 0;
    return true;
  };
  const auto handle_frame = [&](Conn& c, const std::string& request) {
    const std::vector<std::string> tokens = Tokenize(request);
    if (!tokens.empty() && tokens[0] == "gen") {
      const std::vector<std::string> args(tokens.begin() + 1, tokens.end());
      const std::uint64_t begin = obs::MonotonicNanos();
      std::vector<workload::AccessEvent> events;
      if (PrepareGen(args, &events).empty() && events.size() > kGenBatch) {
        // Background job: the reply is queued when the last batch lands;
        // until then this conn's later frames stay unparsed (FIFO).
        c.has_job = true;
        jobs.push_back(
            GenJob{c.id, std::move(events), 0, ServeStats{}, begin});
        return;
      }
      // Small or malformed gen: synchronous path below (re-parses; cheap).
    }
    enqueue(c, HandleRequest(request));
  };
  // Parses every complete frame buffered on c — one recv can carry many
  // pipelined commands. Pauses while a job holds the reply slot.
  const auto parse_frames = [&](Conn& c) {
    std::uint64_t depth = 0;
    std::string request;
    while (!c.closed && !c.has_job && !shutdown_) {
      const FrameSplitter::Result r = c.in.Next(&request);
      if (r == FrameSplitter::Result::kNeedMore) break;
      if (r == FrameSplitter::Result::kOversize) {
        c.closed = true;  // corrupt or hostile length prefix
        break;
      }
      ++depth;
      handle_frame(c, request);
    }
    if (depth > 0) daemon_pipeline_depth_->Record(depth);
  };

  while (!shutdown_ && !stop_.load(std::memory_order_relaxed)) {
    std::vector<pollfd> fds;
    fds.push_back(pollfd{listen_fd, POLLIN, 0});
    if (tcp_fd >= 0) fds.push_back(pollfd{tcp_fd, POLLIN, 0});
    const std::size_t first_conn = fds.size();
    for (const Conn& c : conns) {
      short events = 0;
      // Backpressure: stop reading while a job is outstanding or the
      // client won't drain its replies (bounds both buffers; the kernel
      // socket buffer absorbs the rest via flow control).
      if (!c.has_job && c.out.size() - c.out_off < kMaxOutBuffered) {
        events |= POLLIN;
      }
      if (c.out_off < c.out.size()) events |= POLLOUT;
      fds.push_back(pollfd{c.fd, events, 0});
    }
    // Zero timeout while jobs are pending: batches run from this loop, so
    // it must not sleep on idle sockets mid-gen.
    const int ready =
        ::poll(fds.data(), fds.size(), jobs.empty() ? 100 : 0);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    StatsTick();  // interval resolution = this poll tick

    // I/O pass. conns must not grow/shrink here: fds[i] maps to
    // conns[i - first_conn]; closes are deferred to the sweep below.
    for (std::size_t i = first_conn; i < fds.size(); ++i) {
      Conn& c = conns[i - first_conn];
      const short re = fds[i].revents;
      if (re == 0) continue;
      if ((re & (POLLERR | POLLNVAL)) != 0) {
        c.closed = true;
        continue;
      }
      if ((re & POLLOUT) != 0 && !flush_out(c)) {
        c.closed = true;
        continue;
      }
      if ((re & (POLLIN | POLLHUP)) != 0) {
        bool eof = false;
        char buf[65536];
        while (true) {
          const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            c.in.Append(buf, static_cast<std::size_t>(n));
            continue;
          }
          if (n == 0) {
            eof = true;
            break;
          }
          if (errno == EINTR) continue;
          if (errno != EAGAIN && errno != EWOULDBLOCK) c.closed = true;
          break;
        }
        if (!c.closed) parse_frames(c);
        if (eof && !c.closed) {
          // Serve what the client managed to send, give the replies one
          // non-blocking push, then drop the connection.
          flush_out(c);
          c.closed = true;
        }
      }
    }

    // Accept pass (both listeners): drain each queue to EAGAIN — poll()
    // reports readiness, not depth.
    if (!shutdown_) {
      for (std::size_t i = 0; i < first_conn; ++i) {
        if ((fds[i].revents & POLLIN) == 0) continue;
        while (true) {
          const int fd = ::accept(fds[i].fd, nullptr, nullptr);
          if (fd < 0) break;  // EAGAIN/EWOULDBLOCK (or transient error)
          if (!SetNonBlocking(fd)) {
            ::close(fd);
            continue;
          }
          Conn c;
          c.fd = fd;
          c.id = next_conn_id++;
          conns.push_back(std::move(c));
        }
      }
    }

    // Job pass: one batch per job per wake, so concurrent gens make even
    // progress and control commands interleave between batches.
    for (std::size_t j = 0; !shutdown_ && j < jobs.size();) {
      GenJob& job = jobs[j];
      const std::size_t end =
          std::min(job.pos + kGenBatch, job.events.size());
      const ServeStats s = engine_->ServeRange(job.events, job.pos, end);
      job.pos = end;
      events_served_ += s.events;
      job.stats.events += s.events;
      job.stats.bytes_from_memory += s.bytes_from_memory;
      job.stats.bytes_from_disk += s.bytes_from_disk;
      job.stats.effective_hit_sum += s.effective_hit_sum;
      job.stats.latency_sum_sec += s.latency_sum_sec;
      job.stats.reallocations += s.reallocations;
      if (job.pos < job.events.size()) {
        ++j;
        continue;
      }
      // Same accounting tail HandleRequest gives synchronous commands,
      // with the span covering the whole pipelined lifetime.
      const std::uint64_t end_ns = obs::MonotonicNanos();
      daemon_request_ns_->Record(end_ns - job.begin_ns);
      recorder_.RecordSpan(
          "daemon.request", job.begin_ns, end_ns,
          {{"cmd", "gen"}, {"ok", "1"}, {"pipelined", "1"}});
      CheckAnomalies();
      if (Conn* c = find_conn(job.conn_id)) {
        enqueue(*c, FormatGenReply(job.stats));
        c->has_job = false;
        parse_frames(*c);  // frames that queued up behind the job
        flush_out(*c);     // opportunistic; POLLOUT covers the rest
      }
      jobs.erase(jobs.begin() + static_cast<std::ptrdiff_t>(j));
    }

    // Sweep closed connections (any job they still own keeps running;
    // its reply is dropped at completion).
    for (std::size_t k = 0; k < conns.size();) {
      if (conns[k].closed) {
        ::close(conns[k].fd);
        conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        ++k;
      }
    }
  }

  // Jobs cut short by shutdown still owe their connection a reply frame.
  for (const GenJob& job : jobs) {
    if (Conn* c = find_conn(job.conn_id)) {
      enqueue(*c, Err("daemon shutting down"));
      c->has_job = false;
    }
  }
  // Bounded drain of buffered replies (the `shutdown` "ok bye" included).
  // Stop() skips it: that path is for tests/operators tearing down fast.
  if (shutdown_) {
    const std::uint64_t deadline = obs::MonotonicNanos() + kShutdownFlushNs;
    while (obs::MonotonicNanos() < deadline) {
      std::vector<pollfd> fds;
      for (const Conn& c : conns) {
        if (!c.closed && c.out_off < c.out.size()) {
          fds.push_back(pollfd{c.fd, POLLOUT, 0});
        }
      }
      if (fds.empty()) break;
      if (::poll(fds.data(), fds.size(), 50) < 0 && errno != EINTR) break;
      for (Conn& c : conns) {
        if (!c.closed && c.out_off < c.out.size() && !flush_out(c)) {
          c.closed = true;
        }
      }
    }
  }
  for (const Conn& c : conns) ::close(c.fd);
  if (tcp_fd >= 0) ::close(tcp_fd);
  ::close(listen_fd);
  ::unlink(config_.socket_path.c_str());
  return 0;
}

}  // namespace opus::serve
