// Seeded request rows of the benchmark workloads.
//
// Rows come from the same synthetic generators and generator settings as
// serve::MakeDemoTask, so the served models see in-distribution inputs, but
// from a generator seeded by the workload seed: the training rows (fixed
// seed) are never replayed as requests. The daemon receives only the
// resulting tensors.
#pragma once

#include <cstdint>
#include <string>

#include "nn/dataset.h"

namespace servebench {

/// `rows` labeled request rows of demo task `task` ("ecg" | "eeg" |
/// "image") for workload seed `seed`. Deterministic: the same (task, seed,
/// rows) always yields bit-identical rows and labels.
rrambnn::nn::Dataset MakeRequestRows(const std::string& task,
                                     std::uint64_t seed, std::int64_t rows);

/// FNV-1a 64 over the rows' float bits, shape and labels: the input digest
/// the self-test compares across seeds.
std::uint64_t InputDigest(const rrambnn::nn::Dataset& data);

/// Throws std::runtime_error if any request row is bit-identical to a row of
/// the demo task's own train/validation data.
void CheckDisjointFromTraining(const std::string& task,
                               const rrambnn::nn::Dataset& requests);

}  // namespace servebench
