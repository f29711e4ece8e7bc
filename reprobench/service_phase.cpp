// Service phase: repeat queries against the `repro-cli serve` daemon,
// running as its own process with --workers 2 and a metadata cache half the
// size of all sidecars, so the working set does not fit and evictions run.
//
// Setup writes 64 run pairs (8 iterations, 256 KiB checkpoints, 4 KiB
// chunks) with their flat sidecars; one pair in five diverges from
// iteration kDivergeFrom on. The load is an open loop of Poisson arrivals at
// kRate from three connections: 93% COMPARE (80% agreeing pairs, 20%
// divergent, Zipf popularity within each), 5% TIMELINE over a pair's 8
// iterations, 2% PING. Beside it one WATCH session pushes a watched run's
// digests at a fixed 100 pushes/s. Every latency is taken from the
// request's scheduled send time, so generator stalls count against it.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "ckpt/format.hpp"
#include "ckpt/history.hpp"
#include "merkle/tree.hpp"
#include "common/rng.hpp"
#include "merkle/nodestore.hpp"
#include "phases.hpp"
#include "sim/workload.hpp"
#include "svc/wire.hpp"
#include "telemetry/json_parse.hpp"
#include "trace.hpp"

namespace reprobench {
namespace {

namespace fs = std::filesystem;
namespace svc = repro::svc;

constexpr std::uint32_t kPairs = 64;
constexpr std::uint64_t kIterations = 8;
constexpr std::uint64_t kParticles = 9362;  // 7 F32 fields, ~256 KiB
constexpr std::uint64_t kChunkBytes = 4096;
constexpr std::uint64_t kChunkValues = kChunkBytes / sizeof(float);
constexpr std::uint32_t kDivergentPairs = 13;  // ~20%
// Iteration a divergent pair departs from; fixed, so every seed offers the
// same amount of stage-2 work.
constexpr std::uint64_t kDivergeFrom = 3;
constexpr int kWatchSessions = 8;
constexpr int kConnections = 3;
// Offered rate of the measured mix. The daemon spends ~0.7 ms of CPU per
// COMPARE (two io_uring rings per request), so at 1000 req/s two workers on
// a shared 4-core box run near saturation and the latencies follow the
// host's load, not the program; at 500 req/s they follow the program.
constexpr double kRate = 500;
constexpr double kWatchRate = 100;   // pushes/s
constexpr double kP99LimitUs = 5000;
constexpr std::size_t kMaxOutstanding = 48;  // per connection, < --max-inflight
constexpr double kDrainGraceS = 2.0;
constexpr double kWarmupS = 0.3;
constexpr double kProbeS = 0.5;
constexpr double kMinRate = 250;  // the rate search goes no lower

std::string run_name(char side, std::uint32_t pair) {
  char name[8];
  std::snprintf(name, sizeof(name), "%c%02u", side, pair);
  return name;
}

// ---- one client connection -------------------------------------------------

struct Reply {
  std::uint64_t id = 0;
  svc::WireStatus status = svc::WireStatus::kInternal;
  std::string payload;
};

/// A raw RSVC connection: requests are pipelined and every complete frame
/// in the receive buffer is decoded, so readiness polling never misses a
/// reply that arrived together with another.
class Conn {
 public:
  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool open(const fs::path& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const std::string path = socket_path.string();
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  [[nodiscard]] int fd() const noexcept { return fd_; }

  bool send(svc::Opcode op, std::uint64_t id, std::string_view payload,
            bool json = true) {
    tx_.clear();
    svc::append_request(tx_, op, id, payload, json);
    std::size_t sent = 0;
    while (sent < tx_.size()) {
      const ssize_t n =
          ::send(fd_, tx_.data() + sent, tx_.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// One read from a readable socket; appends every complete reply.
  bool receive(std::vector<Reply>& out) {
    std::uint8_t buffer[64 * 1024];
    const ssize_t n = ::read(fd_, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) return true;
    if (n <= 0) return false;
    rx_.insert(rx_.end(), buffer, buffer + n);
    std::size_t used = 0;
    while (true) {
      svc::DecodedFrame frame;
      const auto outcome = svc::decode_frame(
          std::span<const std::uint8_t>(rx_.data() + used, rx_.size() - used),
          svc::kDefaultMaxFrameBytes, &frame);
      if (outcome == svc::DecodeOutcome::kNeedMoreData) break;
      if (outcome != svc::DecodeOutcome::kFrame) return false;
      used += frame.frame_bytes;
      const std::uint64_t id = frame.header.request_id;
      if (frame.header.code ==
          static_cast<std::uint16_t>(svc::Opcode::kTimelineChunk)) {
        std::string& partial = chunks_[id];
        partial += frame.payload;
        if ((frame.header.flags & svc::kFlagFinalChunk) == 0) continue;
        out.push_back({id, svc::WireStatus::kOk, std::move(partial)});
        chunks_.erase(id);
        continue;
      }
      out.push_back({id, static_cast<svc::WireStatus>(frame.header.code),
                     std::move(frame.payload)});
    }
    rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(used));
    return true;
  }

  /// Blocking request/response (control and WATCH calls).
  std::optional<Reply> call(svc::Opcode op, std::string_view payload,
                            bool json = true, double timeout_s = 10) {
    const std::uint64_t id = next_id_++;
    if (!send(op, id, payload, json)) return {};
    const double deadline = now_s() + timeout_s;
    while (now_s() < deadline) {
      for (auto it = parked_.begin(); it != parked_.end(); ++it) {
        if (it->id == id) {
          Reply reply = std::move(*it);
          parked_.erase(it);
          return reply;
        }
      }
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) > 0 && !receive(parked_)) return {};
    }
    return {};
  }

 private:
  int fd_ = -1;
  std::uint64_t next_id_ = 1u << 30;
  std::vector<std::uint8_t> tx_;
  std::vector<std::uint8_t> rx_;
  std::unordered_map<std::uint64_t, std::string> chunks_;
  std::vector<Reply> parked_;
};

/// Waits until `fd` is readable or `seconds` pass (sub-millisecond timer).
bool wait_readable(int fd, double seconds) {
  pollfd pfd{fd, POLLIN, 0};
  seconds = std::max(0.0, seconds);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec = static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) * 1e9);
  return ::ppoll(&pfd, 1, &ts, nullptr) > 0;
}

// ---- the request mix -------------------------------------------------------

enum Kind { kCompare = 0, kTimeline = 1, kPing = 2 };
constexpr const char* kSpanNames[] = {"svc.compare", "svc.timeline", "svc.ping"};

/// Zipf(1) popularity over a list of pairs, hottest first in a seeded order.
class Zipf {
 public:
  Zipf(std::vector<std::uint32_t> members, std::uint64_t seed)
      : members_(std::move(members)) {
    for (std::size_t i = members_.size(); i > 1; --i) {
      std::swap(members_[i - 1], members_[mix(seed, i, 5) % i]);
    }
    double total = 0;
    for (std::size_t r = 0; r < members_.size(); ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  std::uint32_t draw(double u) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return members_[std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), members_.size() - 1)];
  }

 private:
  std::vector<std::uint32_t> members_;
  std::vector<double> cdf_;
};

struct Request {
  Kind kind = kPing;
  std::uint32_t pair = 0;
  std::uint64_t iteration = 0;
  double due = 0;
};

std::string compare_payload(const ServiceInputs& in, const Request& r) {
  std::ostringstream out;
  out << "{\"root\":\"" << in.root.string() << "\",\"run_a\":\""
      << run_name('a', r.pair) << "\",\"run_b\":\"" << run_name('b', r.pair)
      << "\",\"iteration\":" << r.iteration << ",\"rank\":0}";
  return out.str();
}

std::string timeline_payload(const ServiceInputs& in, const Request& r) {
  std::ostringstream out;
  out << "{\"root\":\"" << in.root.string() << "\",\"run_a\":\""
      << run_name('a', r.pair) << "\",\"run_b\":\"" << run_name('b', r.pair)
      << "\"}";
  return out.str();
}

/// Checks one reply against the generator's ground truth.
bool check_reply(const ServiceInputs& in, const Request& r, const Reply& reply) {
  if (reply.status != svc::WireStatus::kOk) return false;
  if (r.kind == kPing) return true;
  const auto json = repro::telemetry::json_parse(reply.payload);
  if (!json.has_value()) return false;
  if (r.kind == kCompare) {
    return json->u64_or("values_exceeding", ~0ULL) ==
               in.exceeding[r.pair * in.iterations + r.iteration] &&
           json->u64_or("io_retries", 1) == 0 &&
           json->u64_or("io_fallbacks", 1) == 0;
  }
  const auto* first = json->find("first_divergent_iteration");
  const std::int64_t expected = in.first_divergent[r.pair];
  if (first == nullptr ||
      (expected < 0 ? first->kind != repro::telemetry::JsonValue::Kind::kNull
                    : first->number != static_cast<double>(expected))) {
    return false;
  }
  const auto* rows = json->find("pairs");
  if (rows == nullptr || !rows->is_array() || rows->array.size() != in.iterations) {
    return false;
  }
  for (const auto& row : rows->array) {
    const std::uint64_t it = row.u64_or("iteration", ~0ULL);
    if (it >= in.iterations ||
        row.u64_or("values_exceeding", ~0ULL) !=
            in.exceeding[r.pair * in.iterations + it]) {
      return false;
    }
  }
  return true;
}

struct StepResult {
  std::vector<double> latency_us[3];  ///< by Kind
  std::vector<double> lag_us;
  std::vector<double> watch_us;
  double watch_bytes = 0;
  std::uint64_t requests = 0;  ///< answered requests + pushes
  std::uint64_t unanswered = 0;
  int inflight_max = 0;
  bool overloaded = false;

  void merge(StepResult&& other) {
    for (int k = 0; k < 3; ++k) {
      latency_us[k].insert(latency_us[k].end(), other.latency_us[k].begin(),
                           other.latency_us[k].end());
    }
    lag_us.insert(lag_us.end(), other.lag_us.begin(), other.lag_us.end());
    watch_us.insert(watch_us.end(), other.watch_us.begin(), other.watch_us.end());
    watch_bytes += other.watch_bytes;
    requests += other.requests;
    unanswered += other.unanswered;
    overloaded = overloaded || other.overloaded;
  }
};

/// Generator-side state shared by every connection of one step.
struct StepShared {
  std::atomic<int> outstanding{0};
  std::atomic<int> outstanding_max{0};
  std::mutex tally_mu;  ///< guards the tally
  Tally* tally = nullptr;
};

class Load {
 public:
  Load(const ServiceInputs& in, std::uint64_t seed) : in_(in), seed_(seed) {
    std::vector<std::uint32_t> agree;
    std::vector<std::uint32_t> differ;
    for (std::uint32_t k = 0; k < in.pairs; ++k) {
      (in.divergent_pair[k] ? differ : agree).push_back(k);
    }
    agree_.emplace(agree, mix(seed, 500, 0));
    differ_.emplace(differ, mix(seed, 500, 1));
  }

  /// Draws the next request of the mix, or a COMPARE when `compare_only`.
  Request next(repro::Xoshiro256& rng, bool compare_only) const {
    Request r;
    const double u = rng.next_double();
    r.kind = compare_only ? kCompare
                          : (u < 0.93 ? kCompare : (u < 0.98 ? kTimeline : kPing));
    const bool divergent = rng.next_double() < 0.2;
    r.pair = (divergent ? *differ_ : *agree_).draw(rng.next_double());
    r.iteration = rng.next() % in_.iterations;
    return r;
  }

  /// One connection's open loop: Poisson arrivals at `rate` until `end`,
  /// then waits for the replies still outstanding.
  void connection_loop(Conn& conn, double rate, double start, double end,
                       bool compare_only, std::uint64_t stream,
                       StepShared& shared, StepResult& out) const {
    repro::Xoshiro256 rng(mix(seed_, 600, stream));
    auto gap = [&] { return -std::log(1.0 - rng.next_double()) / rate; };
    std::unordered_map<std::uint64_t, Request> pending;
    std::vector<Reply> replies;
    // Unique across steps, so a late reply to an earlier step never
    // matches a request of this one.
    std::uint64_t id = (stream << 32) + 1;
    double due = start + gap();
    while (true) {
      const double now = now_s();
      const bool sending = due < end && !out.overloaded;
      if (sending && now >= due) {
        if (pending.size() >= kMaxOutstanding) {
          out.overloaded = true;  // the backlog grows: this rate fails
          continue;
        }
        Request r = next(rng, compare_only);
        r.due = due;
        const bool sent =
            r.kind == kCompare    ? conn.send(svc::Opcode::kCompare, id, compare_payload(in_, r))
            : r.kind == kTimeline ? conn.send(svc::Opcode::kTimeline, id, timeline_payload(in_, r))
                                  : conn.send(svc::Opcode::kPing, id, {});
        if (!sent) {
          std::lock_guard<std::mutex> lock(shared.tally_mu);
          shared.tally->check(false, "send to the daemon");
          break;
        }
        out.lag_us.push_back((now - due) * 1e6);
        pending.emplace(id++, r);
        const int outstanding = ++shared.outstanding;
        int seen = shared.outstanding_max.load();
        while (outstanding > seen &&
               !shared.outstanding_max.compare_exchange_weak(seen, outstanding)) {
        }
        due += gap();
        continue;
      }
      if (!sending && pending.empty()) break;
      if (!sending && now > end + kDrainGraceS) break;
      const double wait = sending ? due - now : end + kDrainGraceS - now;
      if (!wait_readable(conn.fd(), wait)) continue;
      replies.clear();
      const bool alive = conn.receive(replies);
      const double at = now_s();
      for (const Reply& reply : replies) {
        const auto it = pending.find(reply.id);
        if (it == pending.end()) continue;
        const Request& r = it->second;
        out.latency_us[r.kind].push_back((at - r.due) * 1e6);
        if (Tracer::get().enabled()) {
          Tracer::get().record(kSpanNames[r.kind], r.due, at, reply.id);
        }
        const bool ok = check_reply(in_, r, reply);
        {
          std::lock_guard<std::mutex> lock(shared.tally_mu);
          shared.tally->check(ok, std::string(kSpanNames[r.kind]) + " verdict");
        }
        ++out.requests;
        --shared.outstanding;
        pending.erase(it);
      }
      if (!alive) break;
    }
    out.unanswered += pending.size();
    if (!pending.empty()) {
      std::lock_guard<std::mutex> lock(shared.tally_mu);
      for (std::size_t i = 0; i < pending.size(); ++i) {
        shared.tally->check(false, "request left unanswered");
      }
    }
  }

  /// The WATCH producer: sessions of one watched run each, pushing one
  /// iteration's digests every 1/kWatchRate seconds until `end`.
  void watch_loop(Conn& conn, double start, double end, std::size_t& session,
                  StepShared& shared, StepResult& out) const {
    double due = start;
    while (due < end) {
      const WatchSession& ws = in_.watch[session++ % in_.watch.size()];
      std::ostringstream open;
      open << "{\"root\":\"" << in_.root.string() << "\",\"run\":\"watched\","
           << "\"reference\":\"" << ws.reference << "\",\"rank\":0,"
           << "\"data_bytes\":" << in_.data_bytes << ",\"eps\":" << kEps
           << ",\"chunk_bytes\":" << kChunkBytes << "}";
      const auto opened = conn.call(svc::Opcode::kWatchOpen, open.str());
      bool ok = opened.has_value() && opened->status == svc::WireStatus::kOk;
      for (std::size_t i = 0; ok && i < ws.frames.size() && due < end; ++i) {
        while (now_s() < due) {
          std::this_thread::sleep_for(std::chrono::duration<double>(
              std::min(0.001, due - now_s())));
        }
        std::vector<std::uint8_t> payload;
        svc::encode_watch_push(payload, ws.frames[i]);
        const auto reply = conn.call(
            svc::Opcode::kWatchPush,
            std::string_view(reinterpret_cast<const char*>(payload.data()),
                             payload.size()),
            false);
        const double at = now_s();
        ok = reply.has_value() && reply->status == svc::WireStatus::kOk;
        if (ok) {
          const auto json = repro::telemetry::json_parse(reply->payload);
          const std::uint64_t diverged = ws.diverged_chunks[i];
          ok = json.has_value() &&
               json->string_or("verdict", "") ==
                   (diverged > 0 ? "divergent" : "clean") &&
               (diverged == 0 || json->u64_or("chunks_flagged", 0) == diverged);
        }
        out.watch_us.push_back((at - due) * 1e6);
        out.watch_bytes += static_cast<double>(ws.payload_bytes[i]);
        ++out.requests;
        if (Tracer::get().enabled()) {
          Tracer::get().record("svc.watch_push", due, at, ws.frames[i].iteration);
        }
        {
          std::lock_guard<std::mutex> lock(shared.tally_mu);
          shared.tally->check(ok, "WATCH_PUSH verdict");
        }
        due += 1.0 / kWatchRate;
      }
      const auto closed = conn.call(svc::Opcode::kWatchClose, {});
      std::lock_guard<std::mutex> lock(shared.tally_mu);
      shared.tally->check(ok && closed.has_value() &&
                              closed->status == svc::WireStatus::kOk,
                          "WATCH session");
    }
  }

 private:
  const ServiceInputs& in_;
  std::uint64_t seed_;
  std::optional<Zipf> agree_;
  std::optional<Zipf> differ_;
};

struct Pool {
  std::vector<std::unique_ptr<Conn>> requests;
  std::unique_ptr<Conn> watch;
  std::unique_ptr<Conn> control;
  std::size_t watch_session = 0;
};

/// Offers `rate` req/s for `seconds`: the mix with the WATCH session
/// beside it, or (rate search) COMPARE alone.
StepResult run_step(const Load& load, Pool& pool, double rate, double seconds,
                    bool mix, std::uint64_t step, Tally& tally) {
  StepShared shared;
  shared.tally = &tally;
  std::vector<StepResult> parts(pool.requests.size() + 1);
  const double start = now_s() + 0.002;
  const double end = start + seconds;
  std::vector<std::thread> threads;
  // Wake on schedule: the default 50 us timer slack would show up as
  // generator lag in every request.
  const auto on_time = [] { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); };
  for (std::size_t c = 0; c < pool.requests.size(); ++c) {
    threads.emplace_back([&, c] {
      on_time();
      load.connection_loop(*pool.requests[c],
                           rate / static_cast<double>(pool.requests.size()),
                           start, end, !mix, step * 16 + c, shared, parts[c]);
    });
  }
  if (mix) {
    threads.emplace_back([&] {
      on_time();
      load.watch_loop(*pool.watch, start, end, pool.watch_session, shared,
                      parts.back());
    });
  }
  for (auto& t : threads) t.join();
  StepResult result;
  for (auto& part : parts) result.merge(std::move(part));
  result.inflight_max = shared.outstanding_max.load();
  return result;
}

bool step_passes(const StepResult& step) {
  return !step.overloaded && step.unanswered == 0 &&
         !step.latency_us[kCompare].empty() &&
         quantile(step.latency_us[kCompare], 0.99) <= kP99LimitUs;
}

std::pair<double, double> cache_counters(Conn& control) {
  const auto reply = control.call(svc::Opcode::kStats, {});
  if (!reply.has_value()) return {0, 0};
  const auto json = repro::telemetry::json_parse(reply->payload);
  const auto* cache = json.has_value() ? json->find("cache") : nullptr;
  if (cache == nullptr) return {0, 0};
  return {cache->number_or("hits", 0), cache->number_or("misses", 0)};
}

bool start_daemon(const Config& config, ServiceInputs& in) {
  in.socket = config.work_dir / "svc.sock";
  in.log = config.work_dir / "daemon.log";
  std::error_code ec;
  fs::remove(in.socket, ec);
  const std::string cache_bytes = std::to_string(std::max<std::uint64_t>(
      in.sidecar_bytes / 2, 64 * 1024));
  std::vector<std::string> args = {config.cli.string(), "serve",
                                   "--socket", in.socket.string(),
                                   "--workers", "2",
                                   "--cache-bytes", cache_bytes,
                                   "--chunk", "4K",
                                   "--eps", "1e-6",
                                   "--max-inflight", "64"};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int log_fd = ::open(in.log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) return false;
  const pid_t parent = ::getpid();
  in.daemon = ::fork();
  if (in.daemon == 0) {
    // Only async-signal-safe calls until exec. The daemon is sent SIGTERM
    // (a graceful drain) if the benchmark dies before stopping it.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  if (in.daemon < 0) {
    in.daemon = -1;
    return false;
  }
  const double deadline = now_s() + 20;
  while (now_s() < deadline) {
    std::ifstream log(in.log);
    std::stringstream text;
    text << log.rdbuf();
    if (text.str().find("reprod listening") != std::string::npos) return true;
    int status = 0;
    if (::waitpid(in.daemon, &status, WNOHANG) == in.daemon) {
      in.daemon = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

}  // namespace

std::unique_ptr<ServiceInputs> setup_service(const Config& config) {
  auto in = std::make_unique<ServiceInputs>();
  in->root = config.work_dir / "service";
  in->pairs = kPairs;
  in->iterations = kIterations;
  in->data_bytes = kParticles * 7 * sizeof(float);
  in->exceeding.assign(kPairs * kIterations, 0);
  in->first_divergent.assign(kPairs, -1);
  in->divergent_pair.assign(kPairs, false);
  std::error_code ec;
  fs::remove_all(in->root, ec);

  for (const std::uint64_t k :
       pick_chunks(kPairs, kDivergentPairs, 1, mix(config.seed, 400, 0))) {
    in->divergent_pair[k] = true;
  }
  const std::vector<std::uint64_t> watched =
      pick_chunks(kPairs, kWatchSessions, 1, mix(config.seed, 401, 0));
  in->watch.resize(kWatchSessions);

  repro::merkle::TreeParams params;
  params.chunk_bytes = kChunkBytes;
  params.hash.error_bound = kEps;
  const repro::ckpt::HistoryCatalog catalog(in->root);
  static constexpr const char* kNames[] = {"X", "Y", "Z", "VX", "VY", "VZ", "PHI"};
  auto writer_for = [&](const std::string& run, std::uint64_t iteration,
                        const std::vector<float>& values) {
    repro::ckpt::CheckpointWriter writer("haccette", run, iteration, 0);
    for (std::size_t f = 0; f < 7; ++f) {
      (void)writer.add_field_f32(
          kNames[f],
          std::span<const float>(values.data() + f * kParticles, kParticles));
    }
    return writer;
  };
  const std::uint64_t num_chunks = (in->data_bytes + kChunkBytes - 1) / kChunkBytes;
  bool captured = true;

  for (std::uint32_t k = 0; k < kPairs; ++k) {
    std::vector<float> a(kParticles * 7);
    fill_base(a, mix(config.seed, 410, k));
    const auto session_it = std::find(watched.begin(), watched.end(), k);
    WatchSession* session = nullptr;
    std::uint64_t watch_start = kIterations;  // never diverges
    if (session_it != watched.end()) {
      const auto s = static_cast<std::size_t>(session_it - watched.begin());
      session = &in->watch[s];
      session->reference = run_name('a', k);
      if (s % 2 == 1) watch_start = kDivergeFrom + 1;
    }
    std::optional<repro::merkle::MerkleTree> previous;

    for (std::uint64_t j = 0; j < kIterations; ++j) {
      drift(a, mix(config.seed, 411, k), j);
      std::vector<float> b = a;
      const std::uint64_t key = k * kIterations + j;
      if (j % 2 == 0) {
        near_boundary(b, kChunkValues,
                      pick_chunks(num_chunks, 2, 1, mix(config.seed, 412, key)));
      }
      if (in->divergent_pair[k] && j >= kDivergeFrom) {
        if (config.shape == Shape::kClustered) {
          diverge(b, kChunkValues,
                  pick_chunks(num_chunks, 16, 4, mix(config.seed, 414, key)), 4,
                  mix(config.seed, 416, key));
        } else {
          diverge(b, kChunkValues,
                  pick_chunks(num_chunks, 2, 1, mix(config.seed, 414, key)),
                  kChunkValues, mix(config.seed, 416, key));
        }
      }
      in->exceeding[key] = repro::sim::count_exceeding(a, b, kEps);
      if (in->exceeding[key] > 0 && in->first_divergent[k] < 0) {
        in->first_divergent[k] = static_cast<std::int64_t>(j);
      }
      captured = captured && write_checkpoint(catalog, writer_for(run_name('a', k), j, a), params);
      captured = captured && write_checkpoint(catalog, writer_for(run_name('b', k), j, b), params);

      if (session == nullptr) continue;
      // The watched run: identical to the reference until watch_start, then
      // two chunks move far beyond ε, so its verdict is known exactly.
      std::vector<float> w = a;
      std::uint64_t diverged = 0;
      if (j >= watch_start) {
        const auto chunks = pick_chunks(num_chunks, 2, 1, mix(config.seed, 417, key));
        diverge(w, kChunkValues, chunks, 16, mix(config.seed, 418, key));
        diverged = chunks.size();
      }
      auto built = repro::merkle::TreeBuilder(params, repro::par::Exec::serial())
                       .build(writer_for("watched", j, w).data_section());
      if (!built.is_ok()) {
        captured = false;
        continue;
      }
      svc::WatchPushFrame frame;
      frame.iteration = j;
      if (!previous.has_value()) {
        const repro::merkle::MerkleTree& tree = built.value();
        for (std::uint64_t n = 0; n < tree.layout().num_nodes(); ++n) {
          frame.entries.push_back({n, tree.node(n)});
        }
      } else {
        auto delta = repro::merkle::compute_tree_delta(*previous, built.value(),
                                                       j - 1, j);
        if (!delta.is_ok() || delta.value().nodes.empty()) {
          captured = false;
          continue;
        }
        frame.delta = true;
        frame.entries = std::move(delta.value().nodes);
      }
      session->payload_bytes.push_back(svc::kWatchPushHeaderBytes +
                                       frame.entries.size() * svc::kWatchPushEntryBytes);
      session->diverged_chunks.push_back(diverged);
      session->frames.push_back(std::move(frame));
      previous = std::move(built.value());
    }
  }
  for (const auto& entry : fs::recursive_directory_iterator(in->root, ec)) {
    if (entry.path().extension() == ".rmrk") in->sidecar_bytes += entry.file_size();
  }
  if (!captured || !start_daemon(config, *in)) {
    std::fprintf(stderr, "reprobench: service setup failed (see %s)\n",
                 in->log.string().c_str());
    stop_service(*in);
    return nullptr;
  }
  return in;
}

void stop_service(ServiceInputs& in) {
  if (in.daemon <= 0) return;
  {
    Conn conn;
    if (conn.open(in.socket)) (void)conn.call(svc::Opcode::kShutdown, {}, true, 2);
  }
  const double deadline = now_s() + 10;
  int status = 0;
  bool reaped = false;
  bool terminated = false;
  while (!reaped) {
    if (::waitpid(in.daemon, &status, WNOHANG) == in.daemon) {
      reaped = true;
      break;
    }
    if (!terminated && now_s() > deadline - 5) {
      ::kill(in.daemon, SIGTERM);
      terminated = true;
    }
    if (now_s() > deadline) {
      ::kill(in.daemon, SIGKILL);
      ::waitpid(in.daemon, &status, 0);
      reaped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  in.daemon = -1;
}

struct ServicePhase::State {
  State(const Config& c, const ServiceInputs& i, Tally& t)
      : in(i), tally(t), load(i, c.seed) {}

  const ServiceInputs& in;
  Tally& tally;
  Load load;
  Pool pool;
  bool connected = true;
  bool warmed = false;
  std::uint64_t step = 0;
  StepResult main;  ///< the kRate mix, merged over every slice
  CycleSamples compare_us;  ///< the same latencies, by cycle
  CycleSamples timeline_us;
  CycleSamples watch_us;
  CycleSamples served;  ///< requests answered, one value per slice
  CycleSamples daemon_cpu;  ///< daemon CPU seconds, one value per slice
  double hits = 0;
  double misses = 0;
  double lo = 0;  ///< highest rate that met the limit so far (0 = none)
  double hi = 0;  ///< lowest rate that failed so far (0 = none)

  [[nodiscard]] bool search_done() const {
    return (lo > 0 && hi > 0 && hi / lo <= 1.05) || (lo == 0 && hi > 0 && hi <= kMinRate);
  }
  /// A rate fails only when three probes in a row fail it on a quiet host,
  /// so a stall of the shared machine does not end the search early. A
  /// probe lasts long enough for its p99 to have ten samples beyond it.
  bool passes(double rate) {
    const double seconds = std::max(kProbeS, 1000.0 / rate);
    for (int attempt = 0, failed = 0; attempt < 6 && failed < 3; ++attempt) {
      const StealMeter meter;
      if (step_passes(run_step(load, pool, rate, seconds, false, ++step, tally))) {
        return true;
      }
      if (meter.share() <= kQuietSteal) ++failed;
    }
    return false;
  }
};

ServicePhase::ServicePhase(const Config& config, const ServiceInputs& inputs,
                           Tally& tally)
    : state_(std::make_unique<State>(config, inputs, tally)) {
  Pool& pool = state_->pool;
  bool connected = true;
  for (int c = 0; c < kConnections; ++c) {
    pool.requests.push_back(std::make_unique<Conn>());
    connected = connected && pool.requests.back()->open(inputs.socket);
  }
  pool.watch = std::make_unique<Conn>();
  pool.control = std::make_unique<Conn>();
  connected = connected && pool.watch->open(inputs.socket) &&
              pool.control->open(inputs.socket);
  tally.check(connected, "connect to the daemon");
  state_->connected = connected;
}

ServicePhase::~ServicePhase() = default;

void ServicePhase::run(double budget_s, int cycle) {
  State& s = *state_;
  if (!s.connected) return;
  if (!s.warmed) {
    // Fill the cache and the connections before anything is measured.
    (void)run_step(s.load, s.pool, kRate, kWarmupS, true, ++s.step, s.tally);
    s.warmed = true;
  }
  const auto [hits0, misses0] = cache_counters(*s.pool.control);
  const double cpu0 = pid_cpu_s(s.in.daemon);
  StepResult mix_step =
      run_step(s.load, s.pool, kRate, budget_s, true, ++s.step, s.tally);
  s.daemon_cpu.add(cycle, pid_cpu_s(s.in.daemon) - cpu0);
  const auto [hits1, misses1] = cache_counters(*s.pool.control);
  s.hits += hits1 - hits0;
  s.misses += misses1 - misses0;
  for (const double us : mix_step.latency_us[kCompare]) s.compare_us.add(cycle, us);
  for (const double us : mix_step.latency_us[kTimeline]) s.timeline_us.add(cycle, us);
  for (const double us : mix_step.watch_us) s.watch_us.add(cycle, us);
  s.served.add(cycle, static_cast<double>(mix_step.requests));
  const int inflight_max = std::max(s.main.inflight_max, mix_step.inflight_max);
  s.main.merge(std::move(mix_step));
  s.main.inflight_max = inflight_max;
}

void ServicePhase::search(double budget_s) {
  State& s = *state_;
  if (!s.connected) return;
  // Highest offered COMPARE rate whose p99 stays within the limit with no
  // growing backlog: start at kRate, double until a rate fails, then bisect
  // to ~5%, until the budget is spent. It offers COMPARE alone: a TIMELINE
  // holds a worker for milliseconds, and with it in the mix the p99 would
  // measure TIMELINE length, not capacity.
  const double deadline = now_s() + budget_s;
  while (!s.search_done() &&
         (now_s() < deadline || (s.lo == 0 && s.hi == 0))) {
    const double rate = s.lo == 0 && s.hi == 0 ? kRate
                        : s.hi == 0            ? s.lo * 2
                        : s.lo == 0            ? s.hi / 2
                                               : std::sqrt(s.lo * s.hi);
    (s.passes(rate) ? s.lo : s.hi) = rate;
  }
}

void ServicePhase::report(const std::vector<int>& cycles, Metrics& e2e,
                          Metrics& layer) const {
  const State& s = *state_;
  const StepResult& main = s.main;
  e2e.set("svc_compare_p50_us", quantile(s.compare_us.of(cycles), 0.5), "us");
  e2e.set("svc_watch_p50_us", quantile(s.watch_us.of(cycles), 0.5), "us");
  const double served = s.served.sum(cycles);
  e2e.set("svc_cpu_us_per_req",
          served > 0 ? s.daemon_cpu.sum(cycles) / served * 1e6 : 0, "us");
  e2e.set("svc_peak_rss_mb", peak_rss_mb(s.in.daemon), "MiB");

  if (!Tracer::get().enabled()) return;
  // Below kMinRate the search stops; a daemon that fails even there
  // reports half of it.
  layer.set("svc.max_rps", s.lo > 0 ? s.lo : s.hi / 2, "req/s");
  // The tail is the median over cycles of each cycle's p90, so one stall of
  // a shared machine moves one cycle's tail, not the run's. Tails, and the
  // TIMELINE latency (5% of the mix), swing with the host's load, too much
  // for an end-to-end bound; they are reported here.
  layer.set("svc.compare_p90_us", s.compare_us.median_of_quantiles(cycles, 0.9),
            "us");
  layer.set("svc.timeline_p50_ms", quantile(s.timeline_us.of(cycles), 0.5) / 1e3,
            "ms");
  const double lookups = s.hits + s.misses;
  layer.set("svc.ping_rtt_us", quantile(main.latency_us[kPing], 0.5), "us");
  layer.set("svc.cache_hit_ratio", lookups > 0 ? s.hits / lookups : 0, "ratio");
  layer.set("svc.inflight_max", main.inflight_max, "count");
  layer.set("svc.generator_lag_ms", quantile(main.lag_us, 0.99) / 1e3, "ms");
  layer.set("svc.watch_push_bytes",
            main.watch_us.empty()
                ? 0
                : main.watch_bytes / static_cast<double>(main.watch_us.size()),
            "bytes");
}

}  // namespace reprobench
