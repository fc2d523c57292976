#include "serve/journal.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <iterator>
#include <system_error>
#include <utility>

namespace jsched::serve {
namespace {

constexpr char kTag[] = "s1";  // the admission journal's record tag

/// A record payload formatted on the stack: the verb, then each field after
/// one space, decimal by std::to_chars and hex as 16 lowercase digits.
class Payload {
 public:
  explicit Payload(std::string_view verb) : end_(buf_ + verb.size()) {
    std::memcpy(buf_, verb.data(), verb.size());
  }

  template <class Int>
  Payload& field(Int v) {
    *end_++ = ' ';
    end_ = std::to_chars(end_, std::end(buf_), v).ptr;
    return *this;
  }

  Payload& hex_field(std::uint64_t v) {
    *end_++ = ' ';
    end_ = util::write_hex64(end_, v);
    return *this;
  }

  std::string_view view() const {
    return {buf_, static_cast<std::size_t>(end_ - buf_)};
  }

 private:
  char buf_[160];  // "admit" and six 20-digit fields fit
  char* end_;
};

/// Parses the field at the front of `rest` (" <integer>...", the space
/// before every field included) into `v` and drops it from `rest`; returns
/// what is wrong, or nullptr.
template <class Int>
const char* next_field(std::string_view& rest, Int& v, int base = 10) {
  if (rest.empty()) return "truncated record";
  const std::size_t end = std::min(rest.find(' ', 1), rest.size());
  const char* const last = rest.data() + end;
  const auto [stop, ec] = std::from_chars(rest.data() + 1, last, v, base);
  if (ec != std::errc() || stop != last) return "malformed field";
  rest.remove_prefix(end);
  return nullptr;
}

enum class Verb { kOther, kRun, kAdmit, kDrop, kDigest };

/// One decoded `s1` record.
struct Record {
  Verb verb = Verb::kOther;
  std::uint64_t checksum = 0;
  JournaledJob admit;
  std::int64_t drop = 0;
  DecisionDigest digest;
};

JournalReplayError replay_error(const std::string& path, const char* what,
                                std::size_t line_no) {
  return JournalReplayError("admission journal " + path + ": " + what +
                            " at record " + std::to_string(line_no));
}

/// Checks one line and parses its `s1` payload into `rec`; false for a line
/// of another tag. Throws util::CorruptRecordError on a checksum mismatch
/// and JournalReplayError on a malformed record, an admit outside the job
/// model or an unknown drop kind, naming the file and record number. Open
/// and replay both decode through here.
bool decode(std::string_view line, const std::string& path,
            std::size_t line_no, Record& rec) {
  std::string_view payload;
  try {
    if (!util::AppendLog::check_record(line, kTag, &payload, &rec.checksum)) {
      return false;  // unknown record versions are skipped (forward compat)
    }
  } catch (const util::CorruptRecordError& e) {
    throw util::CorruptRecordError("admission journal " + path + ": " +
                                   e.what() + " at record " +
                                   std::to_string(line_no));
  }
  const std::string_view verb = payload.substr(0, payload.find(' '));
  std::string_view rest = payload.substr(verb.size());
  const auto field = [&](auto& v, int base = 10) {
    if (const char* what = next_field(rest, v, base)) {
      throw replay_error(path, what, line_no);
    }
  };
  if (verb == "admit") {
    std::int64_t submit = 0, nodes = 0, runtime = 0, estimate = 0, user = 0,
                 flags = 0;
    field(submit);
    field(nodes);
    field(runtime);
    field(estimate);
    field(user);
    field(flags);
    if (invalid_job_field(submit, nodes, runtime, estimate, user)) {
      throw replay_error(path, "admit record with invalid fields", line_no);
    }
    rec.verb = Verb::kAdmit;
    rec.admit.record.submit = submit;
    rec.admit.record.nodes = static_cast<int>(nodes);
    rec.admit.record.runtime = runtime;
    rec.admit.record.estimate = estimate;
    rec.admit.record.user = static_cast<std::int32_t>(user);
    rec.admit.late = (flags & 1) != 0;
    rec.admit.delayed = (flags & 2) != 0;
  } else if (verb == "digest") {
    rec.verb = Verb::kDigest;
    field(rec.digest.t);
    field(rec.digest.dones);
    field(rec.digest.sum, 16);
  } else if (verb == "drop") {
    rec.verb = Verb::kDrop;
    field(rec.drop);
    if (rec.drop < 0 || rec.drop > 2) {
      throw replay_error(path, "drop record with unknown kind", line_no);
    }
  } else if (verb == "run") {
    rec.verb = Verb::kRun;
    std::int64_t k = 0;
    field(k);
  } else {
    // Unknown verbs under a valid checksum: written by a newer daemon, or
    // an older one's `start`/`done`; skipping them keeps the file open.
    rec.verb = Verb::kOther;
  }
  return true;
}

}  // namespace

AdmissionJournal::AdmissionJournal(std::string path,
                                   util::AppendLog::Durability durability)
    : log_(std::move(path), durability) {
  load();
}

void AdmissionJournal::load() {
  util::LineReader in(log_.path());
  std::string_view line;
  std::size_t line_no = 0;
  Record rec;
  while (in.next(line)) {
    ++line_no;
    if (!decode(line, log_.path(), line_no, rec)) continue;
    switch (rec.verb) {
      case Verb::kRun:
        ++runs_;
        break;
      case Verb::kAdmit:
        late_at_open_ += rec.admit.late ? 1 : 0;
        delayed_at_open_ += rec.admit.delayed ? 1 : 0;
        last_admit_time_ = rec.admit.record.submit;
        last_event_time_ = std::max(last_event_time_, last_admit_time_);
        admits_fnv_ = util::fnv1a_mix(admits_fnv_, rec.checksum);
        ++admitted_;
        ++consumed_at_open_;
        break;
      case Verb::kDrop:
        ++drops_[rec.drop];
        ++consumed_at_open_;
        break;
      case Verb::kDigest: {
        const DecisionDigest& d = rec.digest;
        const DecisionDigest last =
            digests_.empty() ? DecisionDigest{} : digests_.back();
        if (d.t < last.t || d.dones < last.dones) {
          throw replay_error(log_.path(),
                             "digest record earlier than the one before it",
                             line_no);
        }
        if (d.dones > admitted_) {
          throw replay_error(
              log_.path(),
              "digest record counts more completions than admissions",
              line_no);
        }
        digests_.push_back(d);
        last_event_time_ = std::max(last_event_time_, d.t);
        break;
      }
      case Verb::kOther:
        break;
    }
  }
  loaded_bytes_ = in.consumed();
}

AdmissionJournal::Replay::Replay(const AdmissionJournal& journal)
    : journal_(&journal), in_(journal.path(), journal.loaded_bytes_) {}

bool AdmissionJournal::Replay::next(JournaledJob& out) {
  const std::size_t total = journal_->admitted_;
  if (taken_ == total) return false;
  const auto changed = [&](const std::string& why) {
    return JournalReplayError("admission journal " + journal_->path() +
                              " changed since it was opened: " + why);
  };
  std::string_view line;
  Record rec;
  try {
    do {
      if (!in_.next(line)) {
        throw changed("it holds " + std::to_string(taken_) + " of the " +
                      std::to_string(total) + " admissions loaded then");
      }
      ++line_no_;
    } while (!decode(line, journal_->path(), line_no_, rec) ||
             rec.verb != Verb::kAdmit);
  } catch (const util::CorruptRecordError& e) {
    throw changed(e.what());
  }
  admits_fnv_ = util::fnv1a_mix(admits_fnv_, rec.checksum);
  if (++taken_ == total && admits_fnv_ != journal_->admits_fnv_) {
    throw changed("its admissions differ from those loaded then");
  }
  out = rec.admit;
  return true;
}

void AdmissionJournal::append_record(std::string_view payload) {
  log_.append_checked(kTag, payload);
  ++appends_;
}

void AdmissionJournal::begin_run() {
  append_record(Payload("run").field(runs_).view());
}

void AdmissionJournal::record_admit(const SubmitRecord& r, bool late,
                                    bool delayed) {
  const int flags = (late ? 1 : 0) | (delayed ? 2 : 0);
  append_record(Payload("admit")
                    .field(r.submit)
                    .field(r.nodes)
                    .field(r.runtime)
                    .field(r.estimate)
                    .field(r.user)
                    .field(flags)
                    .view());
}

void AdmissionJournal::record_drop(DropKind kind) {
  ++drops_[static_cast<int>(kind)];
  append_record(Payload("drop").field(static_cast<int>(kind)).view());
}

void AdmissionJournal::record_digest(const DecisionDigest& digest) {
  append_record(Payload("digest")
                    .field(digest.t)
                    .field(digest.dones)
                    .hex_field(digest.sum)
                    .view());
}

}  // namespace jsched::serve
