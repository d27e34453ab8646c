#include "store/store.hpp"

#include <sys/file.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "store/record_io.hpp"
#include "util/log.hpp"

namespace intooa::store {

namespace {

constexpr LogFormat kFormat{"intooa-evalstore", kStoreVersion, 1u << 26,
                            "evaluation store"};

/// Exclusive or shared advisory lock on the log fd, released on scope exit.
class FlockGuard {
 public:
  FlockGuard(int fd, int op) : fd_(fd) {
    while (::flock(fd_, op) != 0) {
      if (errno != EINTR) {
        throw std::runtime_error(std::string("store: flock: ") +
                                 std::strerror(errno));
      }
    }
  }
  ~FlockGuard() { ::flock(fd_, LOCK_UN); }
  FlockGuard(const FlockGuard&) = delete;
  FlockGuard& operator=(const FlockGuard&) = delete;

 private:
  int fd_;
};

obs::Counter& hits_counter() {
  static obs::Counter& c = obs::registry().counter("store.hits");
  return c;
}
obs::Counter& misses_counter() {
  static obs::Counter& c = obs::registry().counter("store.misses");
  return c;
}
obs::Counter& appends_counter() {
  static obs::Counter& c = obs::registry().counter("store.appends");
  return c;
}
obs::Counter& recovered_counter() {
  static obs::Counter& c =
      obs::registry().counter("store.recovered_tail_bytes");
  return c;
}

}  // namespace

EvalStore::EvalStore(std::string path) : log_(std::move(path), kFormat) {}

std::shared_ptr<EvalStore> EvalStore::open(const std::string& path) {
  std::shared_ptr<EvalStore> store(new EvalStore(path));
  store->open_and_recover();
  return store;
}

void EvalStore::open_and_recover() {
  INTOOA_SPAN("store.open");
  FlockGuard lock(log_.fd(), LOCK_EX);
  count_recovered(log_.init_header());
  scan_locked(/*truncate_tail=*/true);
  util::log_info("store " + path() + " opened",
                 {{"records", index_.size()}, {"bytes", log_.end()}});
}

void EvalStore::count_recovered(std::uint64_t bytes) {
  if (bytes == 0) return;
  stats_.recovered_tail_bytes += bytes;
  recovered_counter().add(bytes);
}

void EvalStore::scan_locked(bool truncate_tail) {
  const std::uint64_t tail = log_.scan([this](const Frame& frame) {
    if (const auto digest = peek_digest(frame.payload)) {
      Entry entry;
      entry.offset = frame.offset;
      entry.length = static_cast<std::uint32_t>(frame.payload.size());
      entry.crc = frame.crc;
      index_.emplace(*digest, entry);  // first record of a digest wins
    }
    return true;
  });
  stats_.records = index_.size();
  if (truncate_tail) count_recovered(log_.truncate_tail(tail));
}

std::optional<core::EvalRecord> EvalStore::lookup(const core::EvalKey& key) {
  INTOOA_SPAN("store.lookup");
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = index_.find(key.digest);
  if (it == index_.end()) {
    // Another process may have appended since our last scan: extend the
    // index over any new valid frames (read-only — a torn foreign tail is
    // left for the next writer to truncate) and retry once.
    if (log_.size() > log_.end()) {
      FlockGuard lock(log_.fd(), LOCK_SH);
      scan_locked(/*truncate_tail=*/false);
      it = index_.find(key.digest);
    }
  }
  if (it != index_.end()) {
    const Entry& entry = it->second;
    if (auto payload = log_.read(entry.offset, entry.length, entry.crc)) {
      if (auto decoded = decode_record(*payload)) {
        if (decoded->key.fingerprint == key.fingerprint) {
          ++stats_.hits;
          hits_counter().add();
          return std::move(decoded->record);
        }
        // 64-bit digest collision between different evaluation contexts:
        // degrade to a miss (the colliding key can never be stored).
        util::log_warn("store " + path() + ": key digest collision",
                       {{"digest", it->first}});
      } else {
        util::log_warn("store " + path() + ": undecodable record, ignoring",
                       {{"offset", entry.offset}});
      }
    } else {
      util::log_warn("store " + path() + ": record failed checksum, ignoring",
                     {{"offset", entry.offset}});
    }
  }
  ++stats_.misses;
  misses_counter().add();
  return std::nullopt;
}

bool EvalStore::append(const core::EvalKey& key,
                       const core::EvalRecord& record) {
  INTOOA_SPAN("store.append");
  std::lock_guard<std::mutex> guard(mutex_);
  FlockGuard lock(log_.fd(), LOCK_EX);
  // Pick up foreign appends (and, holding the writer lock, truncate any
  // tail a crashed writer left) so the duplicate check sees every record.
  scan_locked(/*truncate_tail=*/true);
  if (index_.count(key.digest) > 0) return false;

  const std::string payload = encode_record(key, record);
  const Frame frame = log_.append(payload);
  Entry entry;
  entry.offset = frame.offset;
  entry.length = static_cast<std::uint32_t>(payload.size());
  entry.crc = frame.crc;
  index_.emplace(key.digest, entry);
  stats_.records = index_.size();
  ++stats_.appends;
  appends_counter().add();
  return true;
}

std::size_t EvalStore::size() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return index_.size();
}

StoreStats EvalStore::stats() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return stats_;
}

StoreTier::StoreTier(std::shared_ptr<EvalStore> store,
                     core::EvalKeyContext keys)
    : store_(std::move(store)), keys_(std::move(keys)) {
  if (!store_) throw std::invalid_argument("StoreTier: null store");
}

std::optional<core::EvalRecord> StoreTier::load(
    const circuit::Topology& topology) {
  core::EvalRecord record;
  try {
    auto stored = store_->lookup(keys_.key_for(topology));
    if (!stored) return std::nullopt;
    record = std::move(*stored);
  } catch (const std::exception& e) {
    util::log_warn(std::string("store load failed, treating as miss: ") +
                   e.what());
    return std::nullopt;
  }
  return record;
}

void StoreTier::save(const core::EvalRecord& record) {
  try {
    store_->append(keys_.key_for(record.topology), record);
  } catch (const std::exception& e) {
    util::log_warn(std::string("store append failed (result not persisted, "
                               "campaign continues): ") +
                   e.what());
  }
}

void attach(core::TopologyEvaluator& evaluator,
            std::shared_ptr<EvalStore> store) {
  if (!store) {
    evaluator.attach_store(nullptr);
    return;
  }
  evaluator.attach_store(
      std::make_shared<StoreTier>(std::move(store), evaluator.key_context()));
}

}  // namespace intooa::store
