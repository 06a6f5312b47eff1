#include "methods/registry.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "methods/builtin.hpp"

namespace parmis::methods {

MethodRegistry::MethodRegistry() { register_builtin_methods(*this); }

MethodRegistry& MethodRegistry::instance() {
  static MethodRegistry registry;
  return registry;
}

void MethodRegistry::add(std::unique_ptr<const Method> method) {
  require(method != nullptr, "method registry: null method");
  const std::string name = method->name();
  require(!name.empty(), "method registry: method with empty name");
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& m : methods_) {
    require(m->name() != name,
            "method registry: duplicate method name \"" + name + "\"");
  }
  methods_.push_back(std::move(method));
}

const Method* MethodRegistry::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& m : methods_) {
    if (m->name() == name) return m.get();
  }
  return nullptr;
}

const Method& MethodRegistry::get(const std::string& name) const {
  const Method* method = find(name);
  if (method == nullptr) {
    require(false, "campaign: unknown method: " + name + " (registered: " +
                       joined_names() + ")");
  }
  return *method;
}

std::vector<std::string> MethodRegistry::names() const {
  std::vector<std::string> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(methods_.size());
    for (const auto& m : methods_) out.push_back(m->name());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string MethodRegistry::joined_names() const {
  std::string out;
  for (const auto& name : names()) {
    out += (out.empty() ? "" : ", ") + name;
  }
  return out;
}

std::string canonical_method_config(const std::string& method,
                                    const MethodConfigSet& configs) {
  const Method* m = MethodRegistry::instance().find(method);
  if (m == nullptr) return {};
  return m->canonical_config(configs.find(method));
}

}  // namespace parmis::methods
