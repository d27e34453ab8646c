// The serving workloads. The real intooa-served (and intooa-gateway) run as
// child processes on Unix sockets in the working directory; this process is
// the closed-loop load generator: each client thread sends its next request
// only after the reply to the previous one.
//
//   serve_cold   intooa-served --threads 2 --store <fresh>; 2 connections
//                send distinct (spec, topology) keys, so every reply is
//                computed: sizing + simulation + store append + wire.
//   serve_hot    intooa-served --threads 2; setup computes a 64-key hot set;
//                3 connections request it uniformly, so every reply comes
//                from the memory cache: the svc path alone.
//   gateway_hot  the same hot set over HTTP/1.1 keep-alive through
//                intooa-gateway; its difference to serve_hot is the HTTP
//                parser, the JSON codecs and the api::Session hop.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "api/json.hpp"
#include "circuit/rules.hpp"
#include "circuit/spec.hpp"
#include "core/evaluator.hpp"
#include "ledger.hpp"
#include "obs/json.hpp"
#include "store/record_io.hpp"
#include "svc/client.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace intooa::ledger {

namespace {

// The daemons built with intooa-bench (CMakeLists.txt defines both paths).
constexpr const char* kServedBin = INTOOA_SERVED_BIN;
constexpr const char* kGatewayBin = INTOOA_GATEWAY_BIN;
constexpr int kReplyTimeoutMs = 60'000;
/// Keys reserved for serve_cold's traced phase (more than it sends).
constexpr std::size_t kTracedKeys = 1024;

// ---------------------------------------------------------------- children

/// A daemon started with fork/exec, its output appended to a log file. The
/// destructor stops it, so no path out of a workload leaves one running.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& log_path) {
    std::vector<char*> args;
    for (const std::string& arg : argv) {
      args.push_back(const_cast<char*>(arg.c_str()));
    }
    args.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) {
      throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    }
    if (pid_ == 0) {
      // Only async-signal-safe calls between fork and exec.
      const int fd =
          ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      ::execv(args[0], args.data());
      _exit(127);
    }
  }
  ~Child() {
    if (pid_ > 0) stop();
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// True while the process has not exited.
  bool alive() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      exit_status_ = status;
      return false;
    }
    return true;
  }

  /// SIGTERM (the daemons drain and exit 0), then reaps the process; after
  /// 20 s it is killed. Returns its peak resident set in MiB.
  double stop() {
    if (pid_ <= 0) return peak_rss_mb_;
    ::kill(pid_, SIGTERM);
    struct rusage usage {};
    int status = 0;
    for (int waited_ms = 0;; waited_ms += 5) {
      const pid_t got = ::wait4(pid_, &status, WNOHANG, &usage);
      if (got == pid_) break;
      if (got < 0 && errno != EINTR) break;
      if (waited_ms >= 20'000) {
        ::kill(pid_, SIGKILL);
        ::wait4(pid_, &status, 0, &usage);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    exit_status_ = status;
    peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    return peak_rss_mb_;
  }

  /// True when the process exited 0 (a clean drain).
  bool exited_cleanly() const {
    return WIFEXITED(exit_status_) && WEXITSTATUS(exit_status_) == 0;
  }

 private:
  pid_t pid_ = -1;
  int exit_status_ = -1;
  double peak_rss_mb_ = 0.0;
};

// -------------------------------------------------------------------- HTTP

/// One HTTP/1.1 keep-alive connection (identity bodies, Content-Length).
class HttpConnection {
 public:
  explicit HttpConnection(const svc::Address& address)
      : fd_(svc::connect_to(address)) {}

  /// Sends one request and reads its response; returns the status code and
  /// leaves the response body in `response`. Throws on a broken or silent
  /// connection.
  int request(const char* method, const char* target, std::string_view body,
              std::string& response) {
    std::string head = std::string(method) + " " + target +
                       " HTTP/1.1\r\nHost: ledger\r\nContent-Length: " +
                       std::to_string(body.size()) + "\r\n\r\n";
    head.append(body);
    if (!svc::write_all(fd_.get(), head)) {
      throw std::runtime_error("http: connection lost while sending");
    }
    std::size_t head_end = 0;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) fill();
    head_end += 4;
    const int status = std::atoi(buffer_.c_str() + buffer_.find(' ') + 1);
    const std::size_t length = content_length(buffer_.substr(0, head_end));
    while (buffer_.size() < head_end + length) fill();
    response.assign(buffer_, head_end, length);
    buffer_.erase(0, head_end + length);
    return status;
  }

 private:
  static std::size_t content_length(const std::string& head) {
    std::string lower = head;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    const std::size_t at = lower.find("\r\ncontent-length:");
    if (at == std::string::npos) return 0;
    return static_cast<std::size_t>(std::strtoull(
        lower.c_str() + at + std::strlen("\r\ncontent-length:"), nullptr, 10));
  }

  void fill() {
    struct pollfd pfd {fd_.get(), POLLIN, 0};
    if (::poll(&pfd, 1, kReplyTimeoutMs) <= 0) {
      throw std::runtime_error("http: no response");
    }
    char chunk[16384];
    const ssize_t n = ::recv(fd_.get(), chunk, sizeof chunk, 0);
    if (n <= 0) throw std::runtime_error("http: connection closed");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }

  svc::Fd fd_;
  std::string buffer_;  ///< bytes read past the previous response
};

// --------------------------------------------------------------- workloads

struct Key {
  std::size_t spec = 0;  ///< index into circuit::paper_specs()
  std::uint64_t topology = 0;
};

svc::EvalRequest make_request(const Key& key) {
  svc::EvalRequest request;  // default sizing: the paper's 10 + 30
  request.spec = circuit::paper_specs()[key.spec];
  request.topology_index = key.topology;
  return request;
}

/// Every (spec in S-1..S-5, topology) key in an order drawn from `seed`.
std::vector<Key> shuffled_keys(std::uint64_t seed) {
  const std::size_t specs = circuit::paper_specs().size();
  const std::size_t space = circuit::design_space_size();
  std::vector<Key> keys;
  keys.reserve(specs * space);
  for (std::size_t s = 0; s < specs; ++s) {
    for (std::size_t t = 0; t < space; ++t) keys.push_back({s, t});
  }
  util::Rng(seed).shuffle(keys);
  return keys;
}

/// What a closed loop measured: round trips of the units that succeeded.
struct LoopResult {
  std::vector<double> rtt_ms;
  double wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Runs `threads` closed-loop callers until `seconds` pass or `max_units`
/// units were started. `unit(thread, index)` performs unit `index` (unique
/// across threads) and returns its round trip in ms, or nullopt on failure.
LoopResult closed_loop(
    std::size_t threads, double seconds, std::size_t max_units,
    const std::function<std::optional<double>(std::size_t, std::size_t)>&
        unit) {
  std::atomic<std::size_t> next{0};
  std::vector<LoopResult> per_thread(threads);
  const std::uint64_t start = now_ns();
  const auto deadline = static_cast<std::uint64_t>(seconds * 1e9) + start;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      LoopResult& mine = per_thread[t];
      for (;;) {
        const std::size_t index = next.fetch_add(1);
        if (index >= max_units || now_ns() >= deadline) break;
        ++mine.attempted;
        std::optional<double> rtt;
        try {
          rtt = unit(t, index);
        } catch (const std::exception& error) {
          std::fprintf(stderr, "intooa-bench: request failed: %s\n",
                       error.what());
        }
        if (rtt) {
          mine.rtt_ms.push_back(*rtt);
        } else {
          ++mine.failed;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  LoopResult all;
  all.wall_s = seconds_between(start, now_ns());
  for (const LoopResult& mine : per_thread) {
    all.rtt_ms.insert(all.rtt_ms.end(), mine.rtt_ms.begin(),
                      mine.rtt_ms.end());
    all.attempted += mine.attempted;
    all.failed += mine.failed;
  }
  return all;
}

/// One running deployment: intooa-served, optionally intooa-gateway, and
/// the connections the load generator holds to them.
struct Deployment {
  std::unique_ptr<Child> served;
  std::unique_ptr<Child> gateway;
  std::vector<svc::Client> clients;
  std::vector<HttpConnection> http;

  /// Closes every connection, drains the daemons (gateway first) and
  /// returns their summed peak resident set in MiB.
  double stop() {
    http.clear();
    clients.clear();
    double rss = 0.0;
    if (gateway) rss += gateway->stop();
    if (served) rss += served->stop();
    return rss;
  }
};

const svc::Address kServedAddress = svc::Address::parse("unix:served.sock");
const svc::Address kGatewayAddress = svc::Address::parse("unix:gateway.sock");

/// Retries `attempt` until it succeeds, the child dies, or 30 s pass.
template <class Fn>
void wait_ready(Child& child, const char* what, Fn attempt) {
  const std::uint64_t start = now_ns();
  for (;;) {
    try {
      attempt();
      return;
    } catch (const std::exception&) {
      if (!child.alive()) {
        throw std::runtime_error(std::string(what) + " exited during startup");
      }
      if (seconds_between(start, now_ns()) > 30.0) {
        throw std::runtime_error(std::string(what) + " did not become ready");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

svc::Client connect_served(Child& served) {
  svc::Client client;
  wait_ready(served, "intooa-served", [&] { client.connect(kServedAddress); });
  return client;
}

class ServingBench {
 public:
  ServingBench(const Options& options, Report& report, SpanLog& spans)
      : options_(options), report_(report), spans_(spans) {
    const std::string& w = options.workload;
    cold_ = w == "serve_cold";
    http_ = w == "gateway_hot";
    threads_ = cold_ ? 2 : 3;
    keys_ = shuffled_keys(options.seed);
    if (cold_) {
      // Warm-up keys first: the first few keys of each spec, so setup
      // builds every evaluation shard and is long enough to time steadily.
      // The measured keys follow, all distinct and more than any window can
      // use, so every one of them is computed.
      const std::size_t per_spec = options.smoke ? 1 : 4;
      std::vector<Key> warmup, measured;
      std::vector<std::size_t> seen(circuit::paper_specs().size(), 0);
      for (const Key& key : keys_) {
        if (seen[key.spec] < per_spec) {
          ++seen[key.spec];
          warmup.push_back(key);
        } else {
          measured.push_back(key);
        }
      }
      warmup_count_ = warmup.size();
      next_cold_ = warmup_count_;
      keys_ = std::move(warmup);
      keys_.insert(keys_.end(), measured.begin(), measured.end());
    } else {
      keys_.resize(options.smoke ? 8 : 64);  // the hot set
      warmup_count_ = keys_.size();
    }
  }

  void run() {
    // Setup, three times (once for the traced run): start the daemons,
    // connect, and evaluate the warm-up keys. The last deployment serves
    // the measured window.
    std::vector<double> setup_steps;
    Deployment live;
    const int steps = options_.trace ? 1 : 3;
    for (int i = 0; i < steps; ++i) {
      if (i > 0) stop(live);
      const std::uint64_t start = now_ns();
      live = deploy();
      const std::uint64_t end = now_ns();
      setup_steps.push_back(seconds_between(start, end));
      spans_.record("bench.setup", start, end);
    }

    if (!options_.trace) {
      const LoopResult loop = measure(live, options_.seconds,
                                      options_.smoke ? 20 : SIZE_MAX, false);
      const double rss = stop(live);
      emit_e2e(report_, setup_steps, loop.rtt_ms,
               static_cast<double>(loop.rtt_ms.size()) / loop.wall_s, rss);
      verify_computed(loop);
      return;
    }

    // Per-layer run: an untraced half window, then a fixed number of traced
    // requests. Tracing makes svc::Client attach a TraceContext, so every
    // reply carries the server's stage timings. serve_cold's untraced phase
    // draws keys from further down the order, so the traced phase always
    // evaluates the same first keys, whatever the window held.
    next_cold_ = warmup_count_ + kTracedKeys;
    const LoopResult untraced = measure(
        live, options_.seconds / 2, options_.smoke ? 20 : SIZE_MAX, false);
    svc::Client& stats = live.clients.front();
    const obs::Json before = obs::Json::parse(stats.stats_json());
    obs::set_enabled(true);
    spans_.start_trace();
    next_cold_ = warmup_count_;
    const std::size_t traced_units =
        options_.smoke ? 8 : cold_ ? 128 : 4096;
    const LoopResult traced = measure(live, 1e9, traced_units, true);
    obs::set_enabled(false);
    const obs::Json after = obs::Json::parse(stats.stats_json());

    Layers layers;
    layers.delta = snapshot_delta(
        obs::MetricsSnapshot::from_json(before.at("metrics")),
        obs::MetricsSnapshot::from_json(after.at("metrics")));
    layers.svc_queue_p50_us = median_or_zero(queue_ns_) / 1e3;
    layers.svc_decode_p50_us = median_or_zero(decode_ns_) / 1e3;
    layers.svc_eval_p50_us = median_or_zero(eval_ns_) / 1e3;
    layers.svc_encode_p50_us = median_or_zero(encode_ns_) / 1e3;
    layers.svc_wire_p50_us = median_or_zero(wire_ns_) / 1e3;
    const double requests =
        static_cast<double>(layers.delta.counters["svc.requests"]);
    layers.svc_busy_frac =
        requests > 0.0
            ? static_cast<double>(
                  layers.delta.counters["svc.busy_rejections"]) /
                  requests
            : 0.0;
    if (http_) {
      layers.gateway_request_p50_us = gateway_request_p50_us(live) / 1e3;
      layers.gateway_backend_p50_us =
          after.at("quantiles").at("svc.request_ns").at("p50").as_number() /
          1e3;
      layers.gateway_client_p50_us = median_or_zero(traced.rtt_ms) * 1e3;
    }
    const double untraced_p50 = median_or_zero(untraced.rtt_ms);
    layers.overhead_frac =
        untraced_p50 > 0.0 ? median_or_zero(traced.rtt_ms) / untraced_p50 - 1.0
                           : 0.0;
    emit_layers(layers, report_);
    stop(live);
    verify_computed(untraced);
  }

 private:
  /// Starts the daemons, connects, and evaluates the warm-up keys.
  Deployment deploy() {
    Deployment d;
    std::vector<std::string> served_argv = {
        kServedBin, "--listen", "unix:served.sock", "--threads", "2",
        "--log-level", "warn"};
    if (cold_) {
      std::filesystem::remove("served.evalstore");
      served_argv.insert(served_argv.end(), {"--store", "served.evalstore"});
    }
    d.served = std::make_unique<Child>(served_argv, "served.log");
    for (std::size_t t = 0; t < threads_; ++t) {
      d.clients.push_back(connect_served(*d.served));
    }
    if (http_) {
      d.gateway = std::make_unique<Child>(
          std::vector<std::string>{kGatewayBin, "--listen",
                                   "unix:gateway.sock", "--evaluator",
                                   "unix:served.sock", "--log-level", "warn"},
          "gateway.log");
      for (std::size_t t = 0; t < threads_; ++t) {
        wait_ready(*d.gateway, "intooa-gateway", [&] {
          HttpConnection connection(kGatewayAddress);
          std::string body;
          if (connection.request("GET", "/healthz", "", body) != 200) {
            throw std::runtime_error("gateway not healthy");
          }
          d.http.push_back(std::move(connection));
        });
      }
    }

    // The warm-up keys go straight to intooa-served. For the hot workloads
    // they are the hot set: its record bytes are captured on the first
    // deployment and must come back identical from every later one.
    std::mutex mutex;
    const LoopResult warm = closed_loop(
        threads_, 1e9, warmup_count_,
        [&](std::size_t t, std::size_t i) -> std::optional<double> {
          svc::EvalRequest request = make_request(keys_[i]);
          request.request_id = i + 1;
          const svc::Reply reply = d.clients[t].evaluate(request,
                                                         kReplyTimeoutMs);
          if (reply.kind != svc::Reply::Kind::Ok) return std::nullopt;
          std::lock_guard<std::mutex> lock(mutex);
          const auto [it, first] =
              hot_payloads_.emplace(i, reply.response.record_payload);
          if (first) {
            hot_fnv_[i] = api::fnv1a_hex(it->second);
          } else if (it->second != reply.response.record_payload) {
            return std::nullopt;
          }
          return 0.0;
        });
    report_.check(warm.failed == 0 && warm.attempted == warmup_count_,
                  "setup evaluated every warm-up key with identical bytes");
    return d;
  }

  /// The measured closed loop over the live deployment.
  LoopResult measure(Deployment& d, double seconds, std::size_t max_units,
                     bool traced) {
    std::mutex mutex;
    const std::uint64_t seed = options_.seed;
    std::vector<util::Rng> rngs;
    for (std::size_t t = 0; t < threads_; ++t) {
      rngs.emplace_back(seed * 1000003ULL + t + (traced ? 7919ULL : 0ULL));
    }
    const LoopResult loop = closed_loop(
        threads_, seconds, max_units,
        [&](std::size_t t, std::size_t) -> std::optional<double> {
          const std::size_t key = pick_key(rngs[t]);
          if (key >= keys_.size()) return std::nullopt;  // keys exhausted
          const std::uint64_t start = now_ns();
          const std::optional<double> rtt =
              http_ ? http_unit(d.http[t], key, start)
                    : svc_unit(d.clients[t], key, start, traced, mutex);
          if (traced && rtt) {
            spans_.record(http_ ? "bench.http_rtt" : "bench.svc_rtt", start,
                          now_ns());
          }
          return rtt;
        });
    report_.units(loop.attempted, loop.failed);
    return loop;
  }

  /// The next key: a fresh one in order for serve_cold, a uniform draw from
  /// the hot set otherwise.
  std::size_t pick_key(util::Rng& rng) {
    if (cold_) return next_cold_.fetch_add(1);
    return rng.index(keys_.size());
  }

  std::optional<double> svc_unit(svc::Client& client, std::size_t key,
                                 std::uint64_t start, bool traced,
                                 std::mutex& mutex) {
    svc::EvalRequest request = make_request(keys_[key]);
    request.request_id = key + 1;
    const svc::Reply reply = client.evaluate(request, kReplyTimeoutMs);
    const double rtt_ns = static_cast<double>(now_ns() - start);
    if (reply.kind != svc::Reply::Kind::Ok) return std::nullopt;
    const svc::EvalResponse& response = reply.response;
    if (cold_) {
      if (response.served_from != svc::ServedFrom::Computed) {
        return std::nullopt;
      }
      std::lock_guard<std::mutex> lock(mutex);
      cold_payloads_.emplace(key, response.record_payload);
    } else if (response.served_from != svc::ServedFrom::Memory ||
               response.record_payload != hot_payloads_.at(key)) {
      return std::nullopt;
    }
    if (traced) {
      if (!response.timings) return std::nullopt;
      const svc::ServerTimings& t = *response.timings;
      const double server = static_cast<double>(t.queue_ns + t.decode_ns +
                                                t.eval_ns + t.encode_ns);
      std::lock_guard<std::mutex> lock(mutex);
      queue_ns_.push_back(static_cast<double>(t.queue_ns));
      decode_ns_.push_back(static_cast<double>(t.decode_ns));
      eval_ns_.push_back(static_cast<double>(t.eval_ns));
      encode_ns_.push_back(static_cast<double>(t.encode_ns));
      wire_ns_.push_back(rtt_ns - server);
    }
    return rtt_ns / 1e6;
  }

  std::optional<double> http_unit(HttpConnection& connection, std::size_t key,
                                  std::uint64_t start) {
    const std::string body = "{\"spec\": \"" +
                             circuit::paper_specs()[keys_[key].spec].name +
                             "\", \"topology\": " +
                             std::to_string(keys_[key].topology) + "}";
    std::string response;
    const int status =
        connection.request("POST", "/v1/evaluations", body, response);
    const double rtt_ms = static_cast<double>(now_ns() - start) / 1e6;
    if (status != 200) return std::nullopt;
    const obs::Json reply = obs::Json::parse(response);
    if (reply.at("served_from").as_string() != "memory" ||
        reply.at("record_fnv1a").as_string() != hot_fnv_.at(key)) {
      return std::nullopt;
    }
    return rtt_ms;
  }

  /// Median gateway.request_ns over the gateway's lifetime, from /metrics.
  static double gateway_request_p50_us(Deployment& d) {
    std::string text;
    if (d.http.front().request("GET", "/metrics", "", text) != 200) {
      throw std::runtime_error("gateway /metrics failed");
    }
    const std::string series = "intooa_gateway_request_ns{quantile=\"0.5\"} ";
    const std::size_t at = text.find(series);
    if (at == std::string::npos) return 0.0;
    return std::strtod(text.c_str() + at + series.size(), nullptr);
  }

  double stop(Deployment& d) {
    const double rss = d.stop();
    report_.check(d.served->exited_cleanly(),
                  "intooa-served drained and exited 0");
    if (d.gateway) {
      report_.check(d.gateway->exited_cleanly(),
                    "intooa-gateway drained and exited 0");
    }
    return rss;
  }

  /// serve_cold: the replies to the first measured keys (a sample of the
  /// key space drawn by the seed) must be byte-equal to an in-process
  /// TopologyEvaluator recompute of the same key.
  void verify_computed(const LoopResult& loop) {
    if (!cold_) {
      report_.digest(options_.workload + ".hot_set", hot_set_digest());
      return;
    }
    report_.check(!loop.rtt_ms.empty(), "serve_cold completed requests");
    const std::size_t samples = options_.smoke ? 4 : 16;
    std::string concatenated;
    for (std::size_t key = warmup_count_; key < warmup_count_ + samples;
         ++key) {
      const auto served = cold_payloads_.find(key);
      const std::string name = circuit::paper_specs()[keys_[key].spec].name +
                               "/" + std::to_string(keys_[key].topology);
      if (served == cold_payloads_.end()) {
        report_.check(false, "key " + name + " was served");
        continue;
      }
      const svc::EvalRequest request = make_request(keys_[key]);
      const circuit::Topology topology =
          circuit::Topology::from_index(keys_[key].topology);
      core::TopologyEvaluator evaluator(request.eval_context(),
                                        request.sizing);
      evaluator.evaluate(topology);
      const std::string local = store::encode_record(
          evaluator.key_context().key_for(topology),
          evaluator.history().back());
      report_.check(local == served->second,
                    "served record of " + name +
                        " equals the in-process recompute");
      concatenated += local;
    }
    report_.digest("serve_cold.sampled_records",
                   api::fnv1a_hex(concatenated));
  }

  std::string hot_set_digest() const {
    std::string concatenated;
    for (const auto& [key, payload] : hot_payloads_) concatenated += payload;
    return api::fnv1a_hex(concatenated);
  }

  const Options& options_;
  Report& report_;
  SpanLog& spans_;
  bool cold_ = false;
  bool http_ = false;
  std::size_t threads_ = 0;
  std::vector<Key> keys_;
  std::size_t warmup_count_ = 0;
  std::atomic<std::size_t> next_cold_{0};
  std::map<std::size_t, std::string> hot_payloads_;  ///< key -> record bytes
  std::map<std::size_t, std::string> hot_fnv_;
  std::map<std::size_t, std::string> cold_payloads_;
  std::vector<double> queue_ns_, decode_ns_, eval_ns_, encode_ns_, wire_ns_;
};

}  // namespace

void run_serving_workload(const Options& options, Report& report,
                          SpanLog& spans) {
  ServingBench(options, report, spans).run();
}

}  // namespace intooa::ledger
