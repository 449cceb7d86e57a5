#include "engine/registry.h"

#include <stdexcept>
#include <utility>

namespace rrambnn::engine {

std::string ToString(BackendKind kind) {
  switch (kind) {
    case BackendKind::kReference:
      return "reference";
    case BackendKind::kRram:
      return "rram";
    case BackendKind::kRramSharded:
      return "rram-sharded";
    case BackendKind::kFaultInjection:
      return "fault";
  }
  return "?";
}

BackendRegistry::BackendRegistry() {
  Register("reference",
           [](const core::BnnProgram& program, const BackendSpec& /*spec*/) {
             return std::make_unique<ReferenceBackend>(program);
           });
  Register("rram",
           [](const core::BnnProgram& program, const BackendSpec& spec) {
             return std::make_unique<RramBackend>(program, spec.mapper);
           });
  Register("rram-sharded",
           [](const core::BnnProgram& program, const BackendSpec& spec) {
             return std::make_unique<ShardedRramBackend>(program, spec.mapper,
                                                         spec.rram_shards);
           });
  Register("fault",
           [](const core::BnnProgram& program, const BackendSpec& spec) {
             return std::make_unique<FaultInjectionBackend>(
                 program, spec.fault_ber, spec.fault_seed);
           });
}

BackendRegistry& BackendRegistry::Instance() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::Register(const std::string& name,
                               BackendFactory factory) {
  if (name.empty()) {
    throw std::invalid_argument("BackendRegistry: backend name is empty");
  }
  factories_[name] = std::move(factory);
}

bool BackendRegistry::Contains(const std::string& name) const {
  return factories_.count(name) != 0;
}

std::vector<std::string> BackendRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

std::unique_ptr<InferenceBackend> BackendRegistry::Create(
    const std::string& name, const core::BnnProgram& program,
    const BackendSpec& spec) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string known;
    for (const auto& n : Names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::invalid_argument("BackendRegistry: unknown backend \"" + name +
                                "\"; registered: " + known);
  }
  return it->second(program, spec);
}

std::unique_ptr<InferenceBackend> MakeBackend(const std::string& name,
                                              const core::BnnProgram& program,
                                              const BackendSpec& spec) {
  return BackendRegistry::Instance().Create(name, program, spec);
}

std::unique_ptr<InferenceBackend> MakeBackend(BackendKind kind,
                                              const core::BnnProgram& program,
                                              const BackendSpec& spec) {
  return MakeBackend(ToString(kind), program, spec);
}

}  // namespace rrambnn::engine
