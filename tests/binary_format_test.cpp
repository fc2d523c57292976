// JWB1 binary workload format: round-trip fidelity and corruption
// detection. The format's promise is "either the exact job stream that was
// written, or a named error" — never silently wrong jobs.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_support.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/binary.h"
#include "workload/ctc_model.h"
#include "workload/job_source.h"

namespace jsched {
namespace {

class BinaryFormatTest : public ::testing::Test {
 protected:
  // One file per test: `ctest -j` runs each test in its own process, so a
  // shared name would let concurrent tests overwrite each other's file.
  std::string path_ =
      ::testing::TempDir() + "/binary_format_test." +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".jwb";
  void TearDown() override { std::remove(path_.c_str()); }

  std::string file_bytes() const {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  void write_bytes(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  void drain() const {
    workload::BinaryJobSource source(path_);
    Job j;
    while (source.next(j)) {
    }
  }
};

TEST_F(BinaryFormatTest, RoundTripsCtcWorkloadFieldExact) {
  workload::CtcModelParams params;
  params.job_count = 1000;
  const workload::Workload w = workload::generate_ctc(params, 1999);
  workload::write_binary_file(path_, w);

  const workload::Workload back = workload::read_binary_file(path_, w.name());
  ASSERT_EQ(back.size(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(back[i].id, w[i].id) << "job " << i;
    EXPECT_EQ(back[i].submit, w[i].submit) << "job " << i;
    EXPECT_EQ(back[i].nodes, w[i].nodes) << "job " << i;
    EXPECT_EQ(back[i].runtime, w[i].runtime) << "job " << i;
    EXPECT_EQ(back[i].estimate, w[i].estimate) << "job " << i;
    EXPECT_EQ(back[i].user, w[i].user) << "job " << i;
    EXPECT_EQ(back[i].priority_class, w[i].priority_class) << "job " << i;
    EXPECT_EQ(back[i].status, w[i].status) << "job " << i;
  }
  EXPECT_EQ(workload::fingerprint(back), workload::fingerprint(w));
}

TEST_F(BinaryFormatTest, RoundTripsRandomizedFuzzWorkloads) {
  // Adversarial field values: huge runtimes, estimate far below/above
  // runtime, negative users and classes, tiny and machine-wide jobs, equal
  // submits — everything the varint/zigzag coding has to carry. The block
  // size of 7 forces many partial blocks.
  util::Rng rng(0xfeedu);
  for (int round = 0; round < 10; ++round) {
    std::vector<Job> jobs;
    Time submit = 0;
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 40));
    for (std::size_t i = 0; i < n; ++i) {
      Job j;
      submit += rng.uniform_int(0, 1u << 20);
      j.submit = submit;
      j.nodes = static_cast<int>(rng.uniform_int(1, 4096));
      j.runtime = rng.uniform_int(1, 1ll << 40);
      j.estimate = rng.uniform_int(1, 1ll << 40);
      j.user = static_cast<std::int32_t>(rng.uniform_int(-5, 100000));
      j.priority_class = static_cast<std::int32_t>(rng.uniform_int(-3, 3));
      j.status = static_cast<JobStatus>(rng.uniform_int(0, 3));
      jobs.push_back(j);
    }
    workload::Workload w(std::move(jobs), "fuzz");
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      workload::write_binary(out, w, /*block_jobs=*/7);
    }
    const workload::Workload back = workload::read_binary_file(path_);
    ASSERT_EQ(back.size(), w.size()) << "round " << round;
    EXPECT_EQ(workload::fingerprint(back), workload::fingerprint(w))
        << "round " << round;
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(back[i].runtime, w[i].runtime) << "round " << round;
      EXPECT_EQ(back[i].estimate, w[i].estimate) << "round " << round;
      EXPECT_EQ(back[i].user, w[i].user) << "round " << round;
    }
  }
}

TEST_F(BinaryFormatTest, EmptyStreamRoundTrips) {
  {
    std::ofstream out(path_, std::ios::binary);
    workload::BinaryWriter writer(out);
    writer.finish();
    EXPECT_EQ(writer.count(), 0u);
  }
  workload::BinaryJobSource source(path_);
  Job j;
  EXPECT_FALSE(source.next(j));
}

TEST_F(BinaryFormatTest, WriterRejectsOutOfOrderAndInvalidJobs) {
  std::ostringstream out;
  workload::BinaryWriter writer(out);
  Job j;
  j.submit = 100;
  j.nodes = 1;
  j.runtime = 10;
  j.estimate = 10;
  writer.add(j);
  Job earlier = j;
  earlier.submit = 99;
  EXPECT_THROW(writer.add(earlier), std::invalid_argument);
  Job invalid = j;
  invalid.nodes = 0;
  EXPECT_THROW(writer.add(invalid), std::invalid_argument);
}

TEST_F(BinaryFormatTest, TruncationAtEveryPrefixIsDetected) {
  workload::CtcModelParams params;
  params.job_count = 64;
  const workload::Workload w = workload::generate_ctc(params, 3);
  {
    std::ofstream out(path_, std::ios::binary);
    workload::write_binary(out, w, /*block_jobs=*/16);
  }
  const std::string bytes = file_bytes();
  ASSERT_GT(bytes.size(), 8u);
  // Every proper prefix must fail loudly — at open (bad header), at a
  // block boundary (truncated block), or at the missing footer.
  for (std::size_t cut = 0; cut < bytes.size(); cut += 13) {
    write_bytes(bytes.substr(0, cut));
    EXPECT_THROW(drain(), std::runtime_error) << "prefix " << cut;
  }
}

TEST_F(BinaryFormatTest, PayloadCorruptionIsDetected) {
  workload::CtcModelParams params;
  params.job_count = 256;
  const workload::Workload w = workload::generate_ctc(params, 4);
  workload::write_binary_file(path_, w);
  const std::string bytes = file_bytes();

  // Flip one byte in the middle of the (single) block payload: the block
  // checksum must catch it before any decoded job escapes.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x40);
  write_bytes(corrupt);
  EXPECT_THROW(drain(), std::runtime_error);
}

TEST_F(BinaryFormatTest, HeaderCorruptionIsDetected) {
  workload::CtcModelParams params;
  params.job_count = 16;
  workload::write_binary_file(path_, workload::generate_ctc(params, 5));
  std::string bytes = file_bytes();
  bytes[0] = 'X';
  write_bytes(bytes);
  EXPECT_THROW(workload::BinaryJobSource{path_}, std::runtime_error);
}

TEST_F(BinaryFormatTest, FooterCountMismatchIsDetected) {
  workload::CtcModelParams params;
  params.job_count = 32;
  workload::write_binary_file(path_, workload::generate_ctc(params, 6));
  std::string bytes = file_bytes();
  // The footer's u64 count is 16 bytes from the end (count + fingerprint);
  // bump its low byte.
  const std::size_t count_off = bytes.size() - 16;
  bytes[count_off] = static_cast<char>(bytes[count_off] + 1);
  write_bytes(bytes);
  EXPECT_THROW(drain(), std::runtime_error);
}

TEST_F(BinaryFormatTest, BlockChecksumAndFooterArePinned) {
  // JWB1 files outlive the build that wrote them: the block checksum and
  // the footer fingerprint of fixed jobs are pinned, so a reader never
  // starts rejecting (or a writer stops matching) files already on disk.
  std::vector<Job> jobs = {test::make_job(0, 4, 100, 120),
                           test::make_job(30, 1, 5),
                           test::make_job(30, 64, 7200, 3600)};
  jobs[1].user = 7;
  jobs[1].priority_class = 2;
  jobs[2].user = -3;
  jobs[2].status = JobStatus::kFailed;
  std::ostringstream out;
  workload::write_binary(out, test::make_workload(std::move(jobs)));
  const std::string bytes = out.str();
  const auto u64_at = [&bytes](std::size_t off) {
    std::uint64_t v = 0;
    for (std::size_t i = 8; i-- > 0;) {
      v = (v << 8) | static_cast<unsigned char>(bytes[off + i]);
    }
    return v;
  };
  // Header (8 bytes), then the block's u32 payload size and u32 job count.
  EXPECT_EQ(u64_at(16), 10735859924553216072ull);
  EXPECT_EQ(u64_at(bytes.size() - 8), 16512192874762797243ull);
}

/// The raw fields of one JWB1 record, encoded exactly as given: what a
/// writer that checked nothing could have produced.
struct RawRecord {
  std::uint64_t dsubmit = 5;
  std::uint64_t nodes = 2;
  std::uint64_t runtime = 100;
  std::int64_t slack = 20;  // estimate - runtime
  std::int64_t user = 7;
  std::int64_t priority_class = 1;
  unsigned char status = 0;
};

void put_varint(std::string& out, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
  }
  out.push_back(static_cast<char>(v));
}

void put_svarint(std::string& out, std::int64_t v) {
  put_varint(out, (static_cast<std::uint64_t>(v) << 1) ^
                      static_cast<std::uint64_t>(v >> 63));
}

void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>(v >> (8 * i)));
  }
}

/// A JWB1 stream of one correctly checksummed block holding `records`, and
/// a footer for the jobs `expected` (checked only if a reader gets there).
std::string jwb1(const std::vector<RawRecord>& records,
                 const std::vector<Job>& expected) {
  std::string payload;
  for (const RawRecord& r : records) {
    put_varint(payload, r.dsubmit);
    put_varint(payload, r.nodes);
    put_varint(payload, r.runtime);
    put_svarint(payload, r.slack);
    put_svarint(payload, r.user);
    put_svarint(payload, r.priority_class);
    payload.push_back(static_cast<char>(r.status));
  }
  std::string bytes = "JWB1";
  put_le(bytes, 1, 2);
  put_le(bytes, 0, 2);
  put_le(bytes, payload.size(), 4);
  put_le(bytes, records.size(), 4);
  put_le(bytes, util::fnv1a(payload), 8);
  bytes += payload;
  put_le(bytes, 0, 4);
  bytes += "JWBE";
  workload::FingerprintAccumulator fnv;
  for (const Job& j : expected) fnv.add(j);
  put_le(bytes, fnv.count(), 8);
  put_le(bytes, fnv.value(), 8);
  return bytes;
}

TEST_F(BinaryFormatTest, RejectsChecksummedRecordsOutsideTheJobModel) {
  // A block whose checksum holds can still carry fields the job model
  // cannot hold (invalid_job_field, job.h). Each row follows a valid record
  // at submit 10, so Δsubmit accumulates onto a non-zero submit; the
  // reader must fail with a JWB: error naming the field, before anything
  // narrows or overflows. A null field marks a row at a bound that decodes.
  constexpr std::int64_t kMax = kMaxJobSeconds;
  constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kI32Min = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kI32Max = std::numeric_limits<std::int32_t>::max();
  struct Row {
    RawRecord record;
    const char* field;
  };
  const Row rows[] = {
      {{.dsubmit = kMax - 9}, "submit"},  // submit 10^15 + 1
      {{.dsubmit = kI64Max}, "submit"},   // submit past int64
      {{.dsubmit = std::numeric_limits<std::uint64_t>::max()}, "submit"},
      {{.nodes = 0}, "nodes"},
      {{.nodes = (1ull << 32) + 5}, "nodes"},
      {{.nodes = 1ull << 31}, "nodes"},
      {{.runtime = 0}, "runtime"},
      {{.runtime = kMax + 1, .slack = 0}, "runtime"},
      {{.runtime = 100, .slack = -100}, "estimate"},     // estimate 0
      {{.runtime = kMax, .slack = 1}, "estimate"},       // 10^15 + 1
      {{.runtime = 100, .slack = kI64Max}, "estimate"},  // past int64
      {{.user = kI32Max + 1}, "user"},
      {{.user = kI32Min - 1}, "user"},
      {{.priority_class = kI32Max + 1}, "priority class"},
      {{.priority_class = kI32Min - 1}, "priority class"},
      {{.status = 4}, "status"},
      {{.dsubmit = kMax - 10}, nullptr},  // submit 10^15
      {{.nodes = std::numeric_limits<int>::max()}, nullptr},
      {{.runtime = kMax, .slack = 0}, nullptr},
      {{.runtime = 1, .slack = 0}, nullptr},
      {{.runtime = 1, .slack = kMax - 1}, nullptr},  // estimate 10^15
      {{.runtime = kMax, .slack = 1 - kMax}, nullptr},  // estimate 1
      {{.user = kI32Min, .priority_class = kI32Max}, nullptr},
      {{.user = kI32Max, .priority_class = kI32Min}, nullptr},
      {{.status = 3}, nullptr},
  };
  const RawRecord first{.dsubmit = 10, .nodes = 1, .runtime = 50, .slack = 0,
                        .user = 0, .priority_class = 0, .status = 0};
  const Job first_job = test::make_job(10, 1, 50);
  for (const Row& row : rows) {
    const RawRecord& r = row.record;
    SCOPED_TRACE(::testing::Message()
                 << "dsubmit " << r.dsubmit << " nodes " << r.nodes
                 << " runtime " << r.runtime << " slack " << r.slack
                 << " user " << r.user << " class " << r.priority_class
                 << " status " << int{r.status});
    std::vector<Job> expected = {first_job};
    if (row.field == nullptr) {
      Job j;
      j.submit = first_job.submit + static_cast<Time>(r.dsubmit);
      j.nodes = static_cast<int>(r.nodes);
      j.runtime = static_cast<Duration>(r.runtime);
      j.estimate = j.runtime + r.slack;
      j.user = static_cast<std::int32_t>(r.user);
      j.priority_class = static_cast<std::int32_t>(r.priority_class);
      j.status = static_cast<JobStatus>(r.status);
      expected.push_back(j);
    }
    write_bytes(jwb1({first, r}, expected));

    workload::BinaryJobSource source(path_);
    Job j;
    ASSERT_TRUE(source.next(j));
    if (row.field == nullptr) {
      ASSERT_TRUE(source.next(j));
      j.id = kInvalidJob;
      j.submit += first_job.submit;  // the source shifts the origin to 0
      EXPECT_EQ(j, expected[1]);
      EXPECT_FALSE(source.next(j));  // the footer verifies
      continue;
    }
    try {
      source.next(j);
      ADD_FAILURE() << "decoded a record the job model cannot hold";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("JWB: ", 0), 0u) << what;
      EXPECT_NE(what.find(std::string("invalid ") + row.field + " field"),
                std::string::npos)
          << what;
    }
  }
}

TEST_F(BinaryFormatTest, StreamedReadMatchesSourceContract) {
  workload::CtcModelParams params;
  params.job_count = 300;
  const workload::Workload w = workload::generate_ctc(params, 8);
  workload::write_binary_file(path_, w);
  workload::BinaryJobSource source(path_);
  Job j;
  JobId expected = 0;
  Time prev = 0;
  while (source.next(j)) {
    EXPECT_EQ(j.id, expected++);
    EXPECT_GE(j.submit, prev);
    prev = j.submit;
  }
  EXPECT_EQ(expected, w.size());
}

}  // namespace
}  // namespace jsched
