// Compact binary workload format ("JWB1"): the interchange format for
// multi-million-job traces.
//
// SWF is the archive's lingua franca but costs ~80 text bytes per record
// and a full parse per load. JWB1 stores the same job stream
// delta-compressed in self-checking blocks at ~6-10 bytes per job, and both
// ends stream: the writer never holds more than one block, the reader
// emits one job at a time through the JobSource interface.
//
// Layout (all integers little-endian):
//
//   header   "JWB1"  u16 version(=1)  u16 flags(=0)
//   block*   u32 payload_bytes (>0)   u32 job_count   u64 payload FNV-1a
//            payload: per job, in stream order
//              varint  submit delta vs previous job (submits are sorted)
//              varint  nodes
//              varint  runtime
//              svarint estimate - runtime   (zigzag; may be negative)
//              svarint user
//              svarint priority_class
//              u8      status
//   footer   u32 0 (end-of-blocks sentinel)
//            "JWBE"  u64 total job count  u64 workload fingerprint
//
// The submit delta chain runs *across* blocks. The footer fingerprint is
// workload::fingerprint of the whole stream — computable by the streaming
// writer only because that hash mixes the job count last. Every block
// carries an FNV-1a checksum of its payload bytes, so truncation and
// corruption are both detected with a named error, not garbage jobs. So
// is a record that checksums but holds a field the job model cannot
// (invalid_job_field, job.h) or a status byte outside JobStatus.
#pragma once

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "workload/job_source.h"
#include "workload/workload.h"

namespace jsched::workload {

/// Streaming JWB1 writer. Feed jobs in submit order (add throws
/// std::invalid_argument on out-of-order jobs and on jobs the job model
/// cannot hold), then finish().
/// O(one block) memory regardless of stream length.
class BinaryWriter {
 public:
  /// Writes the header immediately. `block_jobs` is the flush granularity.
  explicit BinaryWriter(std::ostream& out, std::size_t block_jobs = 4096);

  /// Flushes any open block and finish()es — but errors in the destructor
  /// are swallowed; call finish() explicitly to learn about them.
  ~BinaryWriter();

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  void add(const Job& j);

  /// Write the final partial block and the footer. Idempotent. Throws
  /// std::runtime_error when the underlying stream failed.
  void finish();

  std::uint64_t count() const noexcept { return fnv_.count(); }

 private:
  void flush_block();

  std::ostream* out_;
  std::size_t block_jobs_;
  std::string payload_;
  std::uint32_t block_count_ = 0;  // jobs in the open block
  Time prev_submit_ = 0;
  FingerprintAccumulator fnv_;
  bool finished_ = false;
};

/// Streaming JWB1 reader: one job per next() in O(one block) memory, with
/// per-block checksum verification and a footer count/fingerprint check on
/// the final pull. Throws std::runtime_error ("JWB: ...") naming the
/// defect on a bad magic/version, a truncated stream, a corrupted block, a
/// record field the job model cannot hold, or a footer mismatch.
class BinaryJobSource final : public JobSource {
 public:
  /// Opens `path`; throws std::runtime_error if unreadable or not JWB1.
  /// `name` defaults to the path.
  explicit BinaryJobSource(const std::string& path, std::string name = {});

  bool next(Job& out) override;
  const std::string& name() const noexcept override { return name_; }

 private:
  bool load_block();  // false at the (verified) footer

  std::ifstream in_;
  std::vector<unsigned char> payload_;
  std::size_t pos_ = 0;           // decode cursor into payload_
  std::uint32_t block_left_ = 0;  // jobs remaining in the loaded block
  Time prev_submit_ = 0;
  FingerprintAccumulator fnv_;
  bool done_ = false;
  std::string name_;
};

/// Serialize a workload as JWB1 (streamed through BinaryWriter).
void write_binary(std::ostream& out, const Workload& w,
                  std::size_t block_jobs = 4096);
void write_binary_file(const std::string& path, const Workload& w);

/// Load a JWB1 file into memory (materialized BinaryJobSource).
Workload read_binary_file(const std::string& path, std::string name = {});

}  // namespace jsched::workload
