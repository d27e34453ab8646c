#pragma once
// Request flight recorder for intooa-served: a fixed-size ring buffer of
// the last N completed requests, each with its full per-stage cost
// breakdown. The ring answers "what did this server just do, and where did
// the slow requests spend their time" without any log volume in steady
// state: it is exposed through StatsResponse (include_flight), dumped to
// the log on SIGUSR1 and on graceful drain, and feeds the opt-in access
// log (--access-log, one key=value line per request).

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "svc/protocol.hpp"

namespace intooa::svc {

/// One completed request, recorded after its reply was flushed.
struct FlightRecord {
  std::uint64_t request_id = 0;
  std::uint64_t key_digest = 0;   ///< core::EvalKey digest (0 for errors)
  ServedFrom served_from = ServedFrom::Computed;
  bool ok = false;                ///< served Ok (false: Error reply)
  std::uint64_t queue_ns = 0;     ///< admission -> pool pickup, or ->
                                  ///< a memory hit's lookup
  std::uint64_t decode_ns = 0;
  std::uint64_t eval_ns = 0;      ///< cache/store lookup or full sizing
  std::uint64_t encode_ns = 0;
  std::uint64_t total_ns = 0;     ///< admission -> reply flushed
  std::uint64_t bytes_in = 0;     ///< request frame size on the socket
  std::uint64_t bytes_out = 0;    ///< reply frame size on the socket
  std::uint64_t trace_id = 0;     ///< propagated trace id, 0 when untraced
  std::uint64_t completed_at_ns = 0;  ///< obs::detail::monotonic_ns()
  std::string peer;               ///< "unix" or "ip:port"
};

/// Mutex-guarded ring of the last `capacity` FlightRecords. Writers pay one
/// short critical section per completed request (far off the per-sample
/// metrics path); snapshot() copies the ring oldest-first.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity);

  void record(FlightRecord record);
  /// The buffered records, oldest first.
  std::vector<FlightRecord> snapshot() const;
  std::size_t capacity() const { return capacity_; }
  /// Requests recorded over the recorder's lifetime (>= ring occupancy).
  std::uint64_t total_recorded() const;

 private:
  mutable std::mutex mutex_;
  std::vector<FlightRecord> ring_;
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
};

/// JSON object view of one record (the StatsResponse "flight" entries).
obs::Json flight_record_json(const FlightRecord& record);

/// One key=value line (no trailing newline) in the util::log field style —
/// the access-log and SIGUSR1-dump format.
std::string flight_record_line(const FlightRecord& record);

}  // namespace intooa::svc
