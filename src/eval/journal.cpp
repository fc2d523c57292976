#include "eval/journal.h"

#include <bit>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/hash.h"

namespace jsched::eval {

namespace {

using util::hex64;

std::uint64_t parse_hex64(const std::string& token, std::size_t line_no) {
  std::uint64_t v = 0;
  if (!util::parse_hex64(token, &v)) {
    throw std::runtime_error("sweep journal: bad hex field '" + token +
                             "' at record " + std::to_string(line_no));
  }
  return v;
}

std::string hex_double(double v) { return hex64(std::bit_cast<std::uint64_t>(v)); }

double parse_hex_double(const std::string& token, std::size_t line_no) {
  return std::bit_cast<double>(parse_hex64(token, line_no));
}

}  // namespace

std::uint64_t cell_key(std::uint64_t workload_fnv, int machine_nodes,
                       const core::AlgorithmSpec& spec,
                       std::uint64_t salt) noexcept {
  std::uint64_t h = util::fnv1a_mix(util::kFnvOffset, workload_fnv);
  h = util::fnv1a_mix(
      h, static_cast<std::uint64_t>(static_cast<std::int64_t>(machine_nodes)));
  h = util::fnv1a_mix(h, static_cast<std::uint64_t>(spec.order));
  h = util::fnv1a_mix(h, static_cast<std::uint64_t>(spec.dispatch));
  h = util::fnv1a_mix(h, static_cast<std::uint64_t>(spec.weight));
  return util::fnv1a_mix(h, salt);
}

std::uint64_t sweep_fingerprint(std::uint64_t workload_fnv,
                                int machine_nodes) noexcept {
  const std::uint64_t h = util::fnv1a_mix(
      util::fnv1a_mix(util::kFnvOffset, workload_fnv),
      static_cast<std::uint64_t>(static_cast<std::int64_t>(machine_nodes)));
  // 0 is the adopted-legacy sentinel inside SweepJournal; keep real
  // fingerprints out of it.
  return h == 0 ? 1 : h;
}

SweepJournal::SweepJournal(std::string path) : log_(std::move(path)) {
  std::size_t line_no = 0;
  std::uint64_t first_segment = kLegacySegment;
  util::AppendLog::for_each_line(log_.path(), [&](std::string_view line) {
    ++line_no;
    std::istringstream in{std::string(line)};
    std::string tag;
    in >> tag;
    if (tag == "v1seg") {
      // Segment header: records below belong to this sweep fingerprint. A
      // malformed header is treated like a torn line (its records stay in
      // the previous segment — at worst dropped as stale later, never
      // wrongly resumed, since cell keys still gate every lookup).
      std::string fp;
      if (in >> fp && fp.size() == 16) {
        segment_ = parse_hex64(fp, line_no);
        if (first_segment == kLegacySegment) first_segment = segment_;
      }
      return;
    }
    if (tag == "v2") {
      // Checksummed record (PR 10): `v2 <fnv1a(body)> <body>` where the
      // body carries the exact v1 field sequence. A failed checksum is
      // corruption, not a format skew — surface it with position info.
      std::string body;
      try {
        util::AppendLog::check_record(line, "v2", &body);
      } catch (const util::CorruptRecordError& e) {
        throw util::CorruptRecordError("sweep journal " + log_.path() + ": " +
                                       e.what() + " at record " +
                                       std::to_string(line_no));
      }
      in.str(body);
      in.clear();
    } else if (tag != "v1") {
      return;  // unknown record versions are skipped
    }

    const auto fail = [&](const char* what) -> std::runtime_error {
      return std::runtime_error("sweep journal " + log_.path() + ": " + what +
                                " at record " + std::to_string(line_no));
    };
    const auto next = [&]() {
      std::string token;
      if (!(in >> token)) throw fail("truncated record");
      return token;
    };
    const auto next_int = [&](int lo, int hi) {
      const std::string token = next();
      int v = 0;
      try {
        v = std::stoi(token);
      } catch (const std::exception&) {
        throw fail("non-numeric field");
      }
      if (v < lo || v > hi) throw fail("enum field out of range");
      return v;
    };
    const auto next_size = [&]() {
      const std::string token = next();
      try {
        return static_cast<std::size_t>(std::stoull(token));
      } catch (const std::exception&) {
        throw fail("non-numeric field");
      }
    };

    const std::uint64_t key = parse_hex64(next(), line_no);
    RunResult r;
    r.spec.order = static_cast<core::OrderKind>(next_int(0, 3));
    r.spec.dispatch = static_cast<core::DispatchKind>(next_int(0, 3));
    r.spec.weight = static_cast<core::WeightKind>(next_int(0, 1));
    r.jobs = next_size();
    r.max_queue_length = next_size();
    r.kills = next_size();
    r.jobs_hit = next_size();
    r.art = parse_hex_double(next(), line_no);
    r.awrt = parse_hex_double(next(), line_no);
    r.wait = parse_hex_double(next(), line_no);
    r.makespan = parse_hex_double(next(), line_no);
    r.utilization = parse_hex_double(next(), line_no);
    r.scheduler_cpu_seconds = parse_hex_double(next(), line_no);
    r.goodput_node_seconds = parse_hex_double(next(), line_no);
    r.wasted_node_seconds = parse_hex_double(next(), line_no);
    r.goodput_fraction = parse_hex_double(next(), line_no);
    r.availability = parse_hex_double(next(), line_no);
    r.availability_weighted_utilization = parse_hex_double(next(), line_no);
    r.schedule_fnv = parse_hex64(next(), line_no);
    std::string name;
    std::getline(in, name);
    const std::size_t start = name.find_first_not_of(' ');
    r.scheduler_name = start == std::string::npos ? "" : name.substr(start);

    cells_[key] = {segment_, r};  // last record wins, matching append order
    ++loaded_;
  });
  if (first_segment != kLegacySegment) {
    // Records before the first header were adopted by the open_segment()
    // that wrote it; reconstruct that adoption. Records superseded by a
    // *later* segment header were reported stale when that segment
    // opened — retire them silently here rather than re-reporting a
    // staleness that was already handled.
    for (auto it = cells_.begin(); it != cells_.end();) {
      if (it->second.segment == kLegacySegment) {
        it->second.segment = first_segment;
      }
      if (it->second.segment != segment_) {
        it = cells_.erase(it);
        --loaded_;
      } else {
        ++it;
      }
    }
  }
}

std::string SweepJournal::open_segment(std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t stale = 0;
  std::uint64_t stale_segment = kLegacySegment;
  for (auto it = cells_.begin(); it != cells_.end();) {
    if (it->second.segment == kLegacySegment) {
      // Pre-segment record: adopt it into the opening sweep.
      it->second.segment = fingerprint;
      ++it;
    } else if (it->second.segment != fingerprint) {
      stale_segment = it->second.segment;
      it = cells_.erase(it);
      ++stale;
    } else {
      ++it;
    }
  }
  stale_dropped_ += stale;
  if (segment_ != fingerprint) {
    segment_ = fingerprint;
    log_.append("v1seg " + hex64(fingerprint));
  }
  // First header of a legacy (or empty) journal is a silent upgrade; only
  // actual stale work is worth a report.
  if (stale == 0) return "";
  return "sweep journal " + path() + ": " + std::to_string(stale) +
         " stale cell" + (stale == 1 ? "" : "s") + " from segment " +
         hex64(stale_segment) + " dropped (sweep is " + hex64(fingerprint) +
         ") — fresh segment opened";
}

std::size_t SweepJournal::stale_dropped() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return stale_dropped_;
}

void SweepJournal::record(std::uint64_t key, const RunResult& r) {
  std::ostringstream os;
  os << hex64(key) << ' ' << static_cast<int>(r.spec.order) << ' '
     << static_cast<int>(r.spec.dispatch) << ' '
     << static_cast<int>(r.spec.weight) << ' ' << r.jobs << ' '
     << r.max_queue_length << ' ' << r.kills << ' ' << r.jobs_hit << ' '
     << hex_double(r.art) << ' ' << hex_double(r.awrt) << ' '
     << hex_double(r.wait) << ' ' << hex_double(r.makespan) << ' '
     << hex_double(r.utilization) << ' ' << hex_double(r.scheduler_cpu_seconds)
     << ' ' << hex_double(r.goodput_node_seconds) << ' '
     << hex_double(r.wasted_node_seconds) << ' '
     << hex_double(r.goodput_fraction) << ' ' << hex_double(r.availability)
     << ' ' << hex_double(r.availability_weighted_utilization) << ' '
     << hex64(r.schedule_fnv) << ' ' << r.scheduler_name;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cells_[key] = {segment_, r};
  }
  // Checksummed v2 record; v1 journals (pre-PR 10) still load, the two
  // formats coexist freely within one file across resumed runs.
  log_.append_checked("v2", os.str());
}

bool SweepJournal::lookup(std::uint64_t key, const core::AlgorithmSpec& spec,
                          RunResult* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cells_.find(key);
  if (it == cells_.end()) return false;
  const RunResult& stored = it->second.result;
  if (stored.spec.order != spec.order || stored.spec.dispatch != spec.dispatch ||
      stored.spec.weight != spec.weight) {
    throw std::runtime_error(
        "sweep journal " + path() + ": record " + hex64(key) + " stores " +
        stored.spec.display_name() + " but the sweep asked for " +
        spec.display_name() + " — key collision or corrupt journal");
  }
  *out = stored;
  // The stored spec only round-trips order/dispatch/weight; hand back the
  // caller's full spec so parameter blocks (smart/psrs knobs) are intact.
  out->spec = spec;
  ++hits_;
  return true;
}

std::size_t SweepJournal::hits() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::size_t SweepJournal::count_cells(const std::string& path) {
  std::size_t cells = 0;
  util::AppendLog::for_each_line(path, [&cells](std::string_view line) {
    if (line.starts_with("v2 ") || line.starts_with("v1 ")) ++cells;
  });
  return cells;
}

std::vector<std::pair<std::uint64_t, RunResult>> SweepJournal::snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::uint64_t, RunResult>> out;
  out.reserve(cells_.size());
  for (const auto& [key, cell] : cells_) out.emplace_back(key, cell.result);
  return out;
}

}  // namespace jsched::eval
