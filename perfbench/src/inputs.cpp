#include <map>

#include "bench.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace llm4vv;

std::vector<LabeledFile> part_two_suite(std::uint64_t seed) {
  core::ExperimentOptions options;
  options.corpus_seed += seed;
  options.probe_seed_offset = seed;
  const auto suite =
      core::build_part_two_suite(frontend::Flavor::kOpenACC, options);
  std::vector<LabeledFile> out;
  out.reserve(suite.files.size());
  for (const auto& probed : suite.files) {
    out.push_back({probed.file, probed.ground_truth_valid()});
  }
  return out;
}

std::vector<LabeledFile> rerun_suite(std::uint64_t seed, std::size_t unique,
                                     std::size_t repeats) {
  // Stratified by template: one file from each template in turn (mutated
  // files without one form their own group). A plain random draw made
  // files/s depend on the seed by about 10%, through how many files of the
  // costlier templates it happened to take.
  core::ExperimentOptions options;
  options.corpus_seed += seed;
  options.probe_seed_offset = seed;
  const auto suite =
      core::build_part_two_suite(frontend::Flavor::kOpenACC, options);
  std::map<std::string, std::vector<LabeledFile>> groups;
  for (const auto& probed : suite.files) {
    groups[probed.template_name].push_back(
        {probed.file, probed.ground_truth_valid()});
  }
  support::Rng rng(seed ^ 0x5e7e5e7eULL);
  std::vector<std::vector<LabeledFile>> strata;
  for (auto& [name, files] : groups) {
    rng.shuffle(files);
    strata.push_back(std::move(files));
  }
  rng.shuffle(strata);
  std::vector<LabeledFile> drawn;
  for (std::size_t round = 0; drawn.size() < unique; ++round) {
    const std::size_t before = drawn.size();
    for (const auto& stratum : strata) {
      if (round < stratum.size() && drawn.size() < unique) {
        drawn.push_back(stratum[round]);
      }
    }
    if (drawn.size() == before) break;  // the suite is exhausted
  }
  std::vector<LabeledFile> out;
  out.reserve(drawn.size() * repeats);
  for (std::size_t r = 0; r < repeats; ++r) {
    out.insert(out.end(), drawn.begin(), drawn.end());
  }
  return out;
}

std::vector<LabeledFile> payload_pool(std::uint64_t seed) {
  auto pool = part_two_suite(seed);
  support::Rng rng(seed ^ 0x9a710ad5ULL);
  rng.shuffle(pool);
  return pool;
}

LabeledFile unique_payload(const std::vector<LabeledFile>& pool,
                           std::size_t k) {
  LabeledFile payload = pool[k % pool.size()];
  payload.file.content += "\n/* perfbench job " + std::to_string(k) + " */\n";
  return payload;
}

}  // namespace perfbench
