#include "serve/journal.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <utility>

namespace jsched::serve {

constexpr char kTag[] = "s1";  // the admission journal's record tag

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
      const std::int64_t submit = next_i64();
      const std::int64_t nodes = next_i64();
      const std::int64_t runtime = next_i64();
      const std::int64_t estimate = next_i64();
      const std::int64_t user = next_i64();
      const std::int64_t flags = next_i64();
      if (invalid_job_field(submit, nodes, runtime, estimate, user)) {
        throw fail("admit record with invalid fields");
      }
      JournaledJob j;
      j.record.submit = submit;
      j.record.nodes = static_cast<int>(nodes);
      j.record.runtime = runtime;
      j.record.estimate = estimate;
      j.record.user = static_cast<std::int32_t>(user);
      j.late = (flags & 1) != 0;
      j.delayed = (flags & 2) != 0;
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
    } else if (verb == "digest") {
      const Time t = next_i64();
      const std::int64_t dones = next_i64();
      std::uint64_t sum = 0;
      if (!(in >> std::hex >> sum)) throw fail("truncated record");
      const DecisionDigest last =
          digests_.empty() ? DecisionDigest{} : digests_.back();
      if (t < last.t || dones < static_cast<std::int64_t>(last.dones)) {
        throw fail("digest record earlier than the one before it");
      }
      if (dones > static_cast<std::int64_t>(admitted_.size())) {
        throw fail("digest record counts more completions than admissions");
      }
      digests_.push_back({t, static_cast<std::size_t>(dones), sum});
      last_event_time_ = std::max(last_event_time_, t);
    }
    // Unknown verbs under a valid checksum: written by a newer daemon, or
    // an older one's `start`/`done`; skipping them keeps the file open.
  });
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
  append_record(buf);
}

void AdmissionJournal::record_drop(DropKind kind) {
  ++drops_[static_cast<int>(kind)];
  append_record("drop " + std::to_string(static_cast<int>(kind)));
}

void AdmissionJournal::record_digest(const DecisionDigest& digest) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "digest %" PRId64 " %zu %016" PRIx64,
                static_cast<std::int64_t>(digest.t), digest.dones, digest.sum);
  append_record(buf);
}

}  // namespace jsched::serve
