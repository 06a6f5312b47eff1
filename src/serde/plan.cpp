#include "serde/plan.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/fs.hpp"
#include "methods/registry.hpp"
#include "serde/json_util.hpp"
#include "serde/scenario_json.hpp"

namespace parmis::serde {

using json::Value;

ScenarioRef ScenarioRef::by_name(std::string name) {
  ScenarioRef ref;
  ref.name = std::move(name);
  return ref;
}

ScenarioRef ScenarioRef::inlined(scenario::ScenarioSpec spec) {
  ScenarioRef ref;
  ref.name = spec.name;
  ref.inline_spec = std::move(spec);
  return ref;
}

void CampaignPlan::validate() const {
  const std::string who = "plan \"" + name + "\": ";
  require(!scenarios.empty(), who + "no scenarios");
  for (const auto& ref : scenarios) {
    require(!ref.name.empty() || ref.inline_spec.has_value(),
            who + "scenario reference with neither name nor inline spec");
  }
  const methods::MethodRegistry& registry =
      methods::MethodRegistry::instance();
  for (const auto& m : methods) {
    if (!registry.contains(m)) {
      require(false, who + "unknown method: " + m + " (registered: " +
                         registry.joined_names() + ")");
    }
  }
  for (const auto& [m, config] : method_configs.entries()) {
    if (!registry.contains(m)) {
      require(false, who + "method_configs entry for unknown method: " +
                         m + " (registered: " + registry.joined_names() +
                         ")");
    }
    require(config != nullptr, who + "null method_configs entry: " + m);
    // Knobless methods and foreign config types fail here, not while
    // computing cache keys or mid-campaign inside a cell.
    registry.get(m).check_config(config.get(), who);
  }
  require(seeds_per_cell >= 1, who + "seeds_per_cell must be >= 1");
  if (shard.has_value()) {
    require(shard->count >= 1, who + "shard.count must be >= 1");
    require(shard->index < shard->count,
            who + "shard.index " + std::to_string(shard->index) +
                " out of range (count " + std::to_string(shard->count) +
                ")");
  }
}

CampaignPlan default_campaign_plan() {
  CampaignPlan plan;
  plan.name = "default-campaign";
  for (const auto& name : scenario::scenario_names()) {
    plan.scenarios.push_back(ScenarioRef::by_name(name));
  }
  return plan;
}

// ------------------------------------------------------------------ serde

json::Value plan_to_json(const CampaignPlan& plan) {
  Value out = Value::object();
  out.set("schema", Value::string(kPlanSchema));
  out.set("name", Value::string(plan.name));
  Value scenarios = Value::array();
  for (const auto& ref : plan.scenarios) {
    if (ref.inline_spec.has_value()) {
      scenarios.push_back(scenario_to_json(*ref.inline_spec));
    } else {
      scenarios.push_back(Value::string(ref.name));
    }
  }
  out.set("scenarios", std::move(scenarios));
  if (!plan.methods.empty()) {
    Value methods = Value::array();
    for (const auto& m : plan.methods) methods.push_back(Value::string(m));
    out.set("methods", std::move(methods));
  }
  if (!plan.method_configs.empty()) {
    Value configs = Value::object();
    for (const auto& [name, config] : plan.method_configs.entries()) {
      configs.set(name, methods::MethodRegistry::instance()
                            .get(name)
                            .config_to_json(*config));
    }
    out.set("method_configs", std::move(configs));
  }
  out.set("seeds_per_cell", u64_to_json(plan.seeds_per_cell));
  out.set("base_seed", u64_to_json(plan.base_seed));
  out.set("anchor_limit", u64_to_json(plan.anchor_limit));
  out.set("full_budget", Value::boolean(plan.full_budget));
  if (!plan.cache.dir.empty()) {
    Value cache = Value::object();
    cache.set("dir", Value::string(plan.cache.dir));
    out.set("cache", std::move(cache));
  }
  if (plan.shard.has_value()) {
    Value shard = Value::object();
    shard.set("index", u64_to_json(plan.shard->index));
    shard.set("count", u64_to_json(plan.shard->count));
    out.set("shard", std::move(shard));
  }
  return out;
}

CampaignPlan plan_from_json(const json::Value& doc,
                            const std::string& context) {
  ObjectReader r(doc, context);
  const std::string schema = r.get_string("schema");
  require(schema == kPlanSchema || schema == kPlanSchemaV1,
          context + ": unsupported plan schema \"" + schema +
              "\" (this build reads \"" + kPlanSchema + "\" and \"" +
              kPlanSchemaV1 + "\")");
  CampaignPlan plan;
  plan.name = r.get_string("name", plan.name);
  const std::string ctx = context + ": plan \"" + plan.name + "\"";

  const Value& scenarios = r.require_key("scenarios");
  require(scenarios.is_array(),
          ctx + ": key \"scenarios\": expected array of names or inline "
                "scenario objects");
  std::size_t i = 0;
  for (const auto& entry : scenarios.items()) {
    if (entry.is_string()) {
      plan.scenarios.push_back(ScenarioRef::by_name(entry.as_string()));
    } else if (entry.is_object()) {
      plan.scenarios.push_back(ScenarioRef::inlined(scenario_from_json(
          entry, ctx + ": scenario #" + std::to_string(i))));
    } else {
      require(false, ctx + ": scenario #" + std::to_string(i) +
                         ": expected a name string or an inline scenario "
                         "object, got " +
                         json::type_name(entry.type()));
    }
    ++i;
  }

  if (const Value* methods = r.optional_key("methods")) {
    require(methods->is_array(),
            ctx + ": key \"methods\": expected array of strings");
    for (const auto& m : methods->items()) {
      plan.methods.push_back(r.as_string(m, "methods"));
    }
  }
  if (const Value* configs = r.optional_key("method_configs")) {
    // v1 predates typed method configs; a v1 document carrying the
    // block is a version mismatch, not a silently-ignored extra.
    require(schema == kPlanSchema,
            ctx + ": \"method_configs\" requires schema \"" +
                std::string(kPlanSchema) + "\" (document declares \"" +
                schema + "\")");
    require(configs->is_object(),
            ctx + ": key \"method_configs\": expected an object keyed by "
                  "method name");
    const methods::MethodRegistry& registry =
        methods::MethodRegistry::instance();
    for (const auto& [name, entry] : configs->members()) {
      const methods::Method* method = registry.find(name);
      if (method == nullptr) {
        require(false, ctx + ": method_configs: unknown method: " + name +
                           " (registered: " + registry.joined_names() +
                           ")");
      }
      plan.method_configs.set(
          name, method->config_from_json(
                    entry, ctx + ": method_configs." + name));
    }
  }
  plan.seeds_per_cell = r.get_size("seeds_per_cell", plan.seeds_per_cell);
  plan.base_seed = r.get_u64("base_seed", plan.base_seed);
  plan.anchor_limit = r.get_size("anchor_limit", plan.anchor_limit);
  plan.full_budget = r.get_bool("full_budget", plan.full_budget);
  if (const Value* cache = r.optional_key("cache")) {
    ObjectReader cr(*cache, ctx + ": cache");
    plan.cache.dir = cr.get_string("dir", "");
    cr.finish();
  }
  if (const Value* shard = r.optional_key("shard")) {
    ObjectReader sr(*shard, ctx + ": shard");
    exec::ShardSpec s;
    s.index = sr.get_size("index", 0);
    s.count = sr.get_size("count", 1);
    sr.finish();
    plan.shard = s;
  }
  r.finish();
  plan.validate();
  return plan;
}

CampaignPlan load_plan(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  require(text.has_value(), "serde: cannot read plan file: " + path);
  json::Value doc;
  try {
    doc = json::parse(*text);
  } catch (const Error& e) {
    require(false, path + ": " + e.what());
  }
  return plan_from_json(doc, path);
}

void save_plan(const std::string& path, const CampaignPlan& plan) {
  atomic_write_file(path, json::dump(plan_to_json(plan)));
}

// -------------------------------------------------------------- catalogue

ScenarioCatalogue::ScenarioCatalogue() = default;

void ScenarioCatalogue::add(scenario::ScenarioSpec spec) {
  spec.validate();
  require(!contains(spec.name),
          "scenario catalogue: duplicate scenario name \"" + spec.name +
              "\" (built-ins cannot be shadowed)");
  user_.push_back(std::move(spec));
}

std::size_t ScenarioCatalogue::add_directory(const std::string& dir) {
  std::size_t added = 0;
  for (const auto& file : list_files(dir, ".json")) {
    add(load_scenario(file.path));
    ++added;
  }
  return added;
}

std::vector<std::string> ScenarioCatalogue::names() const {
  std::vector<std::string> out = scenario::scenario_names();
  for (const auto& spec : user_) out.push_back(spec.name);
  return out;
}

bool ScenarioCatalogue::contains(const std::string& name) const {
  const auto& builtin = scenario::scenario_names();
  if (std::find(builtin.begin(), builtin.end(), name) != builtin.end()) {
    return true;
  }
  return std::any_of(user_.begin(), user_.end(),
                     [&](const auto& s) { return s.name == name; });
}

scenario::ScenarioSpec ScenarioCatalogue::get(const std::string& name) const {
  for (const auto& spec : user_) {
    if (spec.name == name) return spec;
  }
  const auto& builtin = scenario::scenario_names();
  if (std::find(builtin.begin(), builtin.end(), name) != builtin.end()) {
    return scenario::make_scenario(name);
  }
  require(false, "scenario catalogue: unknown scenario \"" + name +
                     "\" (searched " + std::to_string(builtin.size()) +
                     " built-ins and " + std::to_string(user_.size()) +
                     " user scenarios)");
  return {};  // unreachable
}

// -------------------------------------------------------------- resolve

std::vector<scenario::ScenarioSpec> resolve_scenarios(
    const CampaignPlan& plan, const ScenarioCatalogue& catalogue) {
  plan.validate();
  std::vector<scenario::ScenarioSpec> out;
  out.reserve(plan.scenarios.size());
  for (const auto& ref : plan.scenarios) {
    scenario::ScenarioSpec spec =
        ref.inline_spec.has_value() ? *ref.inline_spec
                                    : catalogue.get(ref.name);
    if (!plan.methods.empty()) spec.methods = plan.methods;
    if (plan.full_budget) {
      spec.parmis = scenario::campaign_parmis_budget(true);
    }
    spec.validate();
    out.push_back(std::move(spec));
  }
  return out;
}

exec::CampaignConfig to_campaign_config(const CampaignPlan& plan,
                                        const ScenarioCatalogue& catalogue) {
  exec::CampaignConfig config;
  config.scenarios = resolve_scenarios(plan, catalogue);
  config.seeds_per_cell = plan.seeds_per_cell;
  config.base_seed = plan.base_seed;
  config.anchor_limit = plan.anchor_limit;
  config.method_configs = plan.method_configs;
  if (plan.shard.has_value()) config.shard = *plan.shard;
  return config;
}

}  // namespace parmis::serde
