#include "serve/journal.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <utility>

namespace jsched::serve {

namespace {

constexpr char kTag[] = "s1";

std::uint64_t decision_key(JobId id, std::uint32_t epoch) noexcept {
  return (static_cast<std::uint64_t>(id) << 32) | epoch;
}

}  // namespace

AdmissionJournal::AdmissionJournal(std::string path)
    : log_(std::move(path)) {
  load();
}

AdmissionJournal::AdmissionJournal(std::string path,
                                   util::AppendLog::Durability durability)
    : log_(std::move(path), durability) {
  load();
}

void AdmissionJournal::load() {
  std::size_t line_no = 0;
  util::AppendLog::for_each_line(log_.path(), [&](const std::string& line) {
    ++line_no;
    std::string payload;
    try {
      if (!util::AppendLog::check_record(line, kTag, &payload)) {
        return;  // unknown record versions are skipped (forward compat)
      }
    } catch (const util::CorruptRecordError& e) {
      throw util::CorruptRecordError("admission journal " + log_.path() +
                                     ": " + e.what() + " at record " +
                                     std::to_string(line_no));
    }
    std::istringstream in(payload);
    std::string verb;
    in >> verb;
    const auto fail = [&](const char* what) -> JournalReplayError {
      return JournalReplayError("admission journal " + log_.path() + ": " +
                                what + " at record " +
                                std::to_string(line_no));
    };
    const auto next_i64 = [&]() -> std::int64_t {
      std::int64_t v = 0;
      if (!(in >> v)) throw fail("truncated record");
      return v;
    };
    if (verb == "run") {
      (void)next_i64();
      ++runs_;
    } else if (verb == "admit") {
      JournaledJob j;
      j.record.submit = next_i64();
      j.record.nodes = static_cast<int>(next_i64());
      j.record.runtime = next_i64();
      j.record.estimate = next_i64();
      j.record.user = static_cast<std::int32_t>(next_i64());
      const std::int64_t flags = next_i64();
      j.late = (flags & 1) != 0;
      j.delayed = (flags & 2) != 0;
      if (j.record.submit < 0 || j.record.nodes < 1 || j.record.runtime < 1 ||
          j.record.estimate < 1) {
        throw fail("admit record with invalid fields");
      }
      late_at_open_ += j.late ? 1 : 0;
      delayed_at_open_ += j.delayed ? 1 : 0;
      last_event_time_ = std::max(last_event_time_, j.record.submit);
      admitted_.push_back(j);
      ++consumed_at_open_;
    } else if (verb == "drop") {
      const std::int64_t kind = next_i64();
      if (kind < 0 || kind > 2) throw fail("drop record with unknown kind");
      ++drops_[kind];
      ++consumed_at_open_;
    } else if (verb == "start" || verb == "done") {
      const std::int64_t id = next_i64();
      const std::int64_t attempt = next_i64();
      const Time t = next_i64();
      if (id < 0 || static_cast<std::size_t>(id) >= admitted_.size()) {
        throw fail("decision record for a job never admitted");
      }
      if (attempt < 0 || attempt > 0xffffffffll) {
        throw fail("decision record with a bad epoch");
      }
      DecisionMap& map = verb[0] == 's' ? starts_ : dones_;
      map[decision_key(static_cast<JobId>(id),
                       static_cast<std::uint32_t>(attempt))] = t;
      last_event_time_ = std::max(last_event_time_, t);
    }
    // Unknown verbs under a valid checksum: written by a newer daemon;
    // skipping them keeps old binaries able to at least open the file.
  });
  completed_at_open_ = dones_.size();  // one done per job, at its last epoch
}

void AdmissionJournal::append_record(const std::string& payload) {
  log_.append_checked(kTag, payload);
  ++appends_;
}

void AdmissionJournal::begin_run() {
  append_record("run " + std::to_string(runs_));
}

void AdmissionJournal::record_admit(const SubmitRecord& r, bool late,
                                    bool delayed) {
  char buf[160];
  const int flags = (late ? 1 : 0) | (delayed ? 2 : 0);
  std::snprintf(buf, sizeof(buf),
                "admit %" PRId64 " %d %" PRId64 " %" PRId64 " %" PRId32 " %d",
                static_cast<std::int64_t>(r.submit), r.nodes,
                static_cast<std::int64_t>(r.runtime),
                static_cast<std::int64_t>(r.estimate), r.user, flags);
  JournaledJob j;
  j.record = r;
  j.late = late;
  j.delayed = delayed;
  admitted_.push_back(j);
  append_record(buf);
}

void AdmissionJournal::record_drop(DropKind kind) {
  ++drops_[static_cast<int>(kind)];
  append_record("drop " + std::to_string(static_cast<int>(kind)));
}

bool AdmissionJournal::record_decision(const char* verb, DecisionMap& map,
                                       JobId id, std::uint32_t epoch,
                                       Time t) {
  if (static_cast<std::size_t>(id) >= admitted_.size()) {
    throw JournalReplayError("admission journal " + log_.path() + ": " +
                             verb + " for job " + std::to_string(id) +
                             " which was never admitted");
  }
  const auto it = map.find(decision_key(id, epoch));
  if (it != map.end()) {
    if (it->second == t) return true;  // replayed decision: suppress
    throw JournalReplayError(
        "admission journal " + log_.path() + ": replay diverged — " + verb +
        " of job " + std::to_string(id) + " (epoch " + std::to_string(epoch) +
        ") re-derived at t=" + std::to_string(t) + " but journaled at t=" +
        std::to_string(it->second) +
        " (journal written by a different feed, spec or machine?)");
  }
  map.emplace(decision_key(id, epoch), t);
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%s %u %u %" PRId64, verb, id, epoch,
                static_cast<std::int64_t>(t));
  append_record(buf);
  return false;
}

bool AdmissionJournal::record_start(JobId id, std::uint32_t epoch, Time t) {
  return record_decision("start", starts_, id, epoch, t);
}

bool AdmissionJournal::record_done(JobId id, std::uint32_t epoch, Time t) {
  return record_decision("done", dones_, id, epoch, t);
}

}  // namespace jsched::serve
