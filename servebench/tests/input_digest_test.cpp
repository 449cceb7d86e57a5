// Self-test of the benchmark's seeded inputs: one seed always produces the
// same rows (identical digest), and two seeds produce different rows. Exits
// nonzero on failure; run.py runs it after every build.
#include <cstdio>
#include <string>

#include "inputs.h"

int main() {
  int failures = 0;
  for (const std::string task : {"ecg", "eeg", "image"}) {
    const std::uint64_t a = servebench::InputDigest(
        servebench::MakeRequestRows(task, 1, 12));
    const std::uint64_t again = servebench::InputDigest(
        servebench::MakeRequestRows(task, 1, 12));
    const std::uint64_t b = servebench::InputDigest(
        servebench::MakeRequestRows(task, 2, 12));
    if (a != again) {
      std::printf("FAIL %s: seed 1 digests differ (%016llx vs %016llx)\n",
                  task.c_str(), static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(again));
      ++failures;
    }
    if (a == b) {
      std::printf("FAIL %s: seeds 1 and 2 share digest %016llx\n",
                  task.c_str(), static_cast<unsigned long long>(a));
      ++failures;
    }
    try {
      servebench::CheckDisjointFromTraining(
          task, servebench::MakeRequestRows(task, 1, 12));
    } catch (const std::exception& e) {
      std::printf("FAIL %s: %s\n", task.c_str(), e.what());
      ++failures;
    }
  }
  if (failures == 0) std::printf("input digest self-test passed\n");
  return failures == 0 ? 0 : 1;
}
