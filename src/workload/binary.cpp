#include "workload/binary.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "util/hash.h"

namespace jsched::workload {
namespace {

constexpr char kMagic[4] = {'J', 'W', 'B', '1'};
constexpr char kEndMagic[4] = {'J', 'W', 'B', 'E'};
constexpr std::uint16_t kVersion = 1;

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void write_all(std::ostream& out, const std::string& bytes) {
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

[[noreturn]] void corrupt(const std::string& what) {
  throw std::runtime_error("JWB: " + what);
}

}  // namespace

// --- writer ---------------------------------------------------------------

BinaryWriter::BinaryWriter(std::ostream& out, std::size_t block_jobs)
    : out_(&out), block_jobs_(block_jobs) {
  if (block_jobs_ == 0) {
    throw std::invalid_argument("BinaryWriter: block_jobs == 0");
  }
  std::string header;
  header.append(kMagic, sizeof(kMagic));
  put_u16(header, kVersion);
  put_u16(header, 0);  // flags
  write_all(*out_, header);
}

BinaryWriter::~BinaryWriter() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; an explicit finish() reports the error.
  }
}

void BinaryWriter::add(const Job& j) {
  if (finished_) throw std::logic_error("BinaryWriter: add after finish");
  if (const auto field = invalid_job_field(j)) {
    throw std::invalid_argument(std::string("BinaryWriter: invalid job ") +
                                field_name(*field) + " field");
  }
  if (j.submit < prev_submit_) {
    throw std::invalid_argument("BinaryWriter: jobs out of submit order");
  }
  put_varint(payload_, static_cast<std::uint64_t>(j.submit - prev_submit_));
  put_varint(payload_, static_cast<std::uint64_t>(j.nodes));
  put_varint(payload_, static_cast<std::uint64_t>(j.runtime));
  put_varint(payload_, zigzag(j.estimate - j.runtime));
  put_varint(payload_, zigzag(j.user));
  put_varint(payload_, zigzag(j.priority_class));
  payload_.push_back(static_cast<char>(static_cast<std::int8_t>(j.status)));
  prev_submit_ = j.submit;
  fnv_.add(j);
  if (++block_count_ == block_jobs_) flush_block();
}

void BinaryWriter::flush_block() {
  if (block_count_ == 0) return;
  std::string header;
  put_u32(header, static_cast<std::uint32_t>(payload_.size()));
  put_u32(header, block_count_);
  put_u64(header, util::fnv1a(payload_));
  write_all(*out_, header);
  write_all(*out_, payload_);
  payload_.clear();
  block_count_ = 0;
}

void BinaryWriter::finish() {
  if (finished_) return;
  flush_block();
  std::string footer;
  put_u32(footer, 0);  // end-of-blocks sentinel
  footer.append(kEndMagic, sizeof(kEndMagic));
  put_u64(footer, fnv_.count());
  put_u64(footer, fnv_.value());
  write_all(*out_, footer);
  out_->flush();
  finished_ = true;
  if (!*out_) throw std::runtime_error("BinaryWriter: write failed");
}

// --- reader ---------------------------------------------------------------

namespace {

bool read_exact(std::istream& in, void* dst, std::size_t n) {
  in.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  return static_cast<std::size_t>(in.gcount()) == n;
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

BinaryJobSource::BinaryJobSource(const std::string& path, std::string name)
    : in_(path, std::ios::binary),
      name_(name.empty() ? path : std::move(name)) {
  if (!in_) throw std::runtime_error("cannot open JWB file: " + path);
  unsigned char header[8];
  if (!read_exact(in_, header, sizeof(header))) corrupt("truncated header");
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) corrupt("bad magic");
  const std::uint16_t version =
      static_cast<std::uint16_t>(header[4] | (header[5] << 8));
  if (version != kVersion) {
    corrupt("unsupported version " + std::to_string(version));
  }
}

bool BinaryJobSource::load_block() {
  unsigned char size_bytes[4];
  if (!read_exact(in_, size_bytes, sizeof(size_bytes))) {
    corrupt("truncated stream (missing footer)");
  }
  const std::uint32_t payload_bytes = get_u32(size_bytes);
  if (payload_bytes == 0) {
    // Footer: magic, count, fingerprint — all verified.
    unsigned char footer[20];
    if (!read_exact(in_, footer, sizeof(footer))) corrupt("truncated footer");
    if (std::memcmp(footer, kEndMagic, sizeof(kEndMagic)) != 0) {
      corrupt("bad footer magic");
    }
    const std::uint64_t count = get_u64(footer + 4);
    const std::uint64_t fp = get_u64(footer + 12);
    if (count != fnv_.count()) {
      corrupt("footer count mismatch: footer says " + std::to_string(count) +
              ", stream held " + std::to_string(fnv_.count()));
    }
    if (fp != fnv_.value()) corrupt("footer fingerprint mismatch");
    done_ = true;
    return false;
  }

  unsigned char head[12];
  if (!read_exact(in_, head, sizeof(head))) corrupt("truncated block header");
  const std::uint32_t jobs = get_u32(head);
  const std::uint64_t checksum = get_u64(head + 4);
  if (jobs == 0) corrupt("empty block");
  payload_.resize(payload_bytes);
  if (!read_exact(in_, payload_.data(), payload_bytes)) {
    corrupt("truncated block payload");
  }
  const std::string_view bytes(reinterpret_cast<const char*>(payload_.data()),
                               payload_.size());
  if (util::fnv1a(bytes) != checksum) {
    corrupt("block checksum mismatch");
  }
  pos_ = 0;
  block_left_ = jobs;
  return true;
}

bool BinaryJobSource::next(Job& out) {
  if (done_) return false;
  if (block_left_ == 0 && !load_block()) return false;

  const auto varint = [this]() -> std::uint64_t {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= payload_.size()) corrupt("varint overruns block payload");
      const unsigned char b = payload_[pos_++];
      if (shift >= 63 && b > 1) corrupt("varint overflow");
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  };

  // Each field's widest reading, with the unsigned ones and the estimate
  // slack clamped just past every job bound: the sums cannot overflow, and
  // the check rejects whatever was clamped.
  constexpr std::int64_t kCap = kMaxJobSeconds + 1;
  const auto bounded = [&] {
    return static_cast<std::int64_t>(std::min<std::uint64_t>(varint(), kCap));
  };
  const std::int64_t submit = prev_submit_ + bounded();
  const std::int64_t nodes = bounded();
  const std::int64_t runtime = bounded();
  const std::int64_t estimate =
      runtime + std::clamp<std::int64_t>(unzigzag(varint()), -kCap, kCap);
  const std::int64_t user = unzigzag(varint());
  const std::int64_t priority_class = unzigzag(varint());
  if (pos_ >= payload_.size()) corrupt("record overruns block payload");
  const unsigned char status = payload_[pos_++];
  if (const auto field = invalid_job_field(submit, nodes, runtime, estimate,
                                           user, priority_class)) {
    corrupt(std::string("decoded job has an invalid ") + field_name(*field) +
            " field");
  }
  if (status > static_cast<unsigned char>(JobStatus::kUnknown)) {
    corrupt("decoded job has an invalid status field");
  }
  Job j;
  j.submit = submit;
  j.nodes = static_cast<int>(nodes);
  j.runtime = runtime;
  j.estimate = estimate;
  j.user = static_cast<std::int32_t>(user);
  j.priority_class = static_cast<std::int32_t>(priority_class);
  j.status = static_cast<JobStatus>(status);
  prev_submit_ = j.submit;
  --block_left_;
  if (block_left_ == 0 && pos_ != payload_.size()) {
    corrupt("block payload has trailing bytes");
  }
  fnv_.add(j);  // pre-stamp: fingerprint is over the stored stream
  stamp(j);
  out = j;
  return true;
}

// --- convenience ----------------------------------------------------------

void write_binary(std::ostream& out, const Workload& w,
                  std::size_t block_jobs) {
  BinaryWriter writer(out, block_jobs);
  for (const Job& j : w) writer.add(j);
  writer.finish();
}

void write_binary_file(const std::string& path, const Workload& w) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open JWB file for write: " + path);
  write_binary(out, w);
}

Workload read_binary_file(const std::string& path, std::string name) {
  BinaryJobSource source(path, std::move(name));
  return materialize(source);
}

}  // namespace jsched::workload
