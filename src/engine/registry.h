// String-keyed factory of execution backends. Bench and CLI code selects a
// substrate by name ("reference", "rram", "rram-sharded", "fault"); new
// substrates register themselves without touching Engine or any call site.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/bnn_program.h"
#include "engine/backends.h"

namespace rrambnn::engine {

/// The built-in substrates, for call sites that prefer an enum over a string.
enum class BackendKind {
  kReference,
  kRram,
  kRramSharded,
  kFaultInjection,
};

/// Registry key of a built-in backend.
std::string ToString(BackendKind kind);

/// Builds a backend for a compiled program under the given parameters.
using BackendFactory = std::function<std::unique_ptr<InferenceBackend>(
    const core::BnnProgram& program, const BackendSpec& spec)>;

/// Process-wide name -> factory map. The four built-in backends are
/// registered on first access.
class BackendRegistry {
 public:
  static BackendRegistry& Instance();

  /// Registers (or replaces) a factory under `name`.
  void Register(const std::string& name, BackendFactory factory);

  bool Contains(const std::string& name) const;

  /// Sorted list of registered backend names.
  std::vector<std::string> Names() const;

  /// Instantiates backend `name`; throws std::invalid_argument for unknown
  /// names (the message lists what is registered).
  std::unique_ptr<InferenceBackend> Create(const std::string& name,
                                           const core::BnnProgram& program,
                                           const BackendSpec& spec) const;

 private:
  BackendRegistry();

  std::map<std::string, BackendFactory> factories_;
};

/// Convenience wrappers over BackendRegistry::Instance().Create.
std::unique_ptr<InferenceBackend> MakeBackend(const std::string& name,
                                              const core::BnnProgram& program,
                                              const BackendSpec& spec);
std::unique_ptr<InferenceBackend> MakeBackend(BackendKind kind,
                                              const core::BnnProgram& program,
                                              const BackendSpec& spec);

}  // namespace rrambnn::engine
