// swf2bin: convert an SWF archive trace (or a synthetic model spec) to the
// compact JWB1 binary workload format, streaming both ends — a
// multi-million-job trace converts in O(1) memory.
//
// Usage:
//   swf2bin <input.swf> <output.jwb> [--lenient] [--drop-unsuccessful]
//   swf2bin --ctc <jobs> <seed> <output.jwb>      synthetic CTC-like trace
//   swf2bin --verify <file.jwb>                   re-read + checksum check
//
// The SWF input must be sorted by submit time (archive traces are); the
// converter re-ids and origin-shifts exactly like Workload::finalize.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "util/number.h"
#include "workload/binary.h"
#include "workload/ctc_model.h"
#include "workload/swf.h"

namespace {

int usage() {
  std::cerr
      << "usage: swf2bin <input.swf> <output.jwb> [--lenient]"
         " [--drop-unsuccessful]\n"
         "       swf2bin --ctc <jobs> <seed> <output.jwb>\n"
         "       swf2bin --verify <file.jwb>\n";
  return 2;
}

/// Drain `source` into a JWB1 file; returns the job count.
std::uint64_t convert(jsched::workload::JobSource& source,
                      const std::string& out_path) {
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("cannot open output file: " + out_path);
  }
  jsched::workload::BinaryWriter writer(out);
  jsched::Job j;
  while (source.next(j)) writer.add(j);
  writer.finish();
  return writer.count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 2 && args[0] == "--verify") {
      // Pull the whole stream: block checksums and the footer count +
      // fingerprint all verify as a side effect.
      jsched::workload::BinaryJobSource source(args[1]);
      jsched::Job j;
      std::uint64_t n = 0;
      while (source.next(j)) ++n;
      std::cout << args[1] << ": ok, " << n << " jobs\n";
      return 0;
    }

    if (args.size() == 4 && args[0] == "--ctc") {
      jsched::workload::CtcModelParams params;
      std::uint64_t seed = 0;
      if (!jsched::util::parse_number(args[1], params.job_count) ||
          !jsched::util::parse_number(args[2], seed)) {
        return usage();
      }
      jsched::workload::CtcJobSource source(params, seed);
      const std::uint64_t n = convert(source, args[3]);
      std::cout << args[3] << ": " << n << " jobs\n";
      return 0;
    }

    if (args.size() < 2 || args[0].rfind("--", 0) == 0) return usage();
    jsched::workload::SwfOptions options;
    for (std::size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "--lenient") {
        options.lenient = true;
      } else if (args[i] == "--drop-unsuccessful") {
        options.drop_unsuccessful = true;
      } else {
        return usage();
      }
    }
    jsched::workload::SwfParseReport report;
    options.report = &report;
    jsched::workload::SwfReadStats stats;
    jsched::workload::SwfJobSource source(args[0], options, &stats);
    const std::uint64_t n = convert(source, args[1]);
    std::cout << args[1] << ": " << n << " jobs";
    if (stats.skipped_invalid + stats.skipped_malformed > 0) {
      std::cout << " (" << stats.skipped_invalid << " invalid, "
                << stats.skipped_malformed << " malformed records skipped)";
    }
    std::cout << "\n";
    if (options.lenient && report.total() > 0) {
      std::cout << report.summary() << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "swf2bin: " << e.what() << "\n";
    return 1;
  }
}
