# Campaign CLI contracts, end to end through the campaign binary:
#
#   * determinism: --compare-threads runs the whole catalogue at 1 and
#     at N threads and exits non-zero unless every cell succeeds and the
#     two digests match;
#   * cache: a re-run against the same cache dir is served entirely
#     from cache (--require-cached exits non-zero otherwise; the report
#     says cache_misses 0) and reproduces the digest; against an empty
#     cache --require-cached exits 1 naming the missing cell and leaves
#     no entry and no report behind;
#   * plans: every shipped plan loads; a plan-driven run reproduces the
#     equivalent flag-driven run and replays from its cache; shards over
#     one cache dir cover the campaign exactly once; a plan with a
#     hostile parmis field fails at load, exit 1, naming the scenario;
#   * flags: an unknown flag, a malformed count or a stray argument is
#     refused before any cell runs;
#   * method registry: rl/il/dypo through their plan, its cached replay
#     and the equivalent flags agree, and the full method matrix (every
#     method on all three SoC variants) replays from cache.
#
#   cmake -DCAMPAIGN=path/to/campaign -DPLAN_DIR=examples/plans \
#         -DWORK_DIR=scratch/dir -P tests/cli_campaign_contracts.cmake
#
# Registered with ctest as cli_campaign_contracts.
if(NOT DEFINED PLAN_DIR)
  message(FATAL_ERROR "cli_campaign_contracts: -DPLAN_DIR=... is required")
endif()
include(${CMAKE_CURRENT_LIST_DIR}/cli_common.cmake)

# expect_all_cached(<label>): <label>'s report computed no cell.
function(expect_all_cached label)
  file(READ "${WORK_DIR}/${label}.json" doc)
  if(NOT doc MATCHES "\"cache_misses\": 0[,\n}]")
    message(FATAL_ERROR "${label}: not served entirely from cache")
  endif()
endfunction()

# ---------------------------------------------------------- determinism
run_cli(compare-threads --compare-threads --threads=4)

# ---------------------------------------------------------------- cache
set(pair --scenarios=xu3-mibench-te,mobile3-edp --threads=4
         --cache-dir=cache)
run_campaign(cache1 ${pair})
run_campaign(cache2 ${pair} --resume --require-cached --cache-stats)
expect_same_digest(cache1 cache2)
expect_all_cached(cache2)

# ---------------------------------------------------------------- plans
file(GLOB plans "${PLAN_DIR}/*.json")
list(LENGTH plans plan_count)
if(plan_count EQUAL 0)
  message(FATAL_ERROR "no plans under ${PLAN_DIR}")
endif()
foreach(plan ${plans})
  run_cli("load ${plan}" --plan ${plan} --dump-plan)
endforeach()
message(STATUS "${plan_count} shipped plans load")

set(smoke ${PLAN_DIR}/quick_smoke.json)
run_campaign(plan_smoke --plan ${smoke} --threads=2)
run_campaign(flag_smoke --scenarios=xu3-mibench-te --methods=performance
             --seeds=1 --seed=1 --anchor-limit=3 --threads=2)
expect_same_digest(plan_smoke flag_smoke)
# --require-cached is a pure cache read: against an empty cache it
# exits 1 naming the first missing cell, and computes, stores and
# writes nothing.
execute_process(
  COMMAND "${CAMPAIGN}" --plan ${smoke} --cache-dir=empty-cache
          --require-cached --json=${WORK_DIR}/never.json
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
file(GLOB left "${WORK_DIR}/empty-cache/*")
if(NOT rc EQUAL 1 OR
   NOT err MATCHES "cell xu3-mibench-te/performance seed 1 is not in" OR
   EXISTS "${WORK_DIR}/never.json" OR left)
  message(FATAL_ERROR "--require-cached on an empty cache: want exit 1 "
                      "naming the cell, no report and no entry, got "
                      "${rc}:\n${out}\n${err}\nleft: ${left}")
endif()
run_campaign(plan_cold --plan ${smoke} --cache-dir=plan-cache)
run_campaign(plan_warm --plan ${smoke} --cache-dir=plan-cache
             --require-cached)
expect_same_digest(plan_cold plan_warm)
expect_all_cached(plan_warm)

set(sharded --scenarios=mobile3-edp --methods=performance,powersave,ondemand
            --cache-dir=shard-cache)
foreach(i 0 1 2)
  run_cli("shard ${i}" ${sharded} --shard-index=${i} --shard-count=3)
endforeach()
run_cli("shard cover" ${sharded} --require-cached)

# Each field is read only inside a PaRMIS cell, so each must be refused
# when the plan loads instead.
set(hostile_fields
    "\"kernel\": \"ard_rbf\""
    "\"noise_variance\": 0"
    "\"noise_variance\": -1e-4"
    "\"noise_variance\": 1e999"
    "\"theta_bound\": 1e999"
    "\"perturbation_sd\": -1"
    "\"acq_pool_size\": 0"
    "\"num_initial\": 1"
    "\"num_initial\": 0")
foreach(field IN LISTS hostile_fields)
  file(WRITE "${WORK_DIR}/hostile.json"
       "{\"schema\": \"parmis-plan-v1\", \"name\": \"hostile\", "
       "\"scenarios\": [{\"name\": \"hostile-parmis\", "
       "\"benchmark_apps\": [\"qsort\"], \"methods\": [\"parmis\"], "
       "\"parmis\": {${field}}}]}")
  execute_process(
    COMMAND "${CAMPAIGN}" --plan hostile.json --dump-plan
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "scenario \"hostile-parmis\"")
    message(FATAL_ERROR
            "plan with ${field}: want exit 1 naming the scenario, got "
            "${rc}:\n${out}\n${err}")
  endif()
endforeach()

# ---------------------------------------------------------------- flags
set(one_cell --scenarios=xu3-mibench-te --methods=performance --seeds=1
             --no-cache)
expect_rejected("${CAMPAIGN}" ${one_cell} --thredas=2)
expect_rejected("${CAMPAIGN}" ${one_cell} --require-cachd)
expect_rejected("${CAMPAIGN}" ${one_cell} --threads=-1)
expect_rejected("${CAMPAIGN}" --scenarios=xu3-mibench-te --seeds=3x)
expect_rejected("${CAMPAIGN}" stray-argument ${one_cell})

# ------------------------------------------------------ method registry
run_cli(list-methods --list-methods)
set(learned ${PLAN_DIR}/learned_baselines.json)
run_campaign(lb_cold --plan ${learned} --threads=4 --cache-dir=methods-cache)
run_campaign(lb_warm --plan ${learned} --threads=4 --cache-dir=methods-cache
             --require-cached)
run_campaign(lb_flags --scenarios=xu3-synthetic-te --methods=rl,il,dypo
             --seeds=1 --seed=1 --anchor-limit=3 --threads=4)
expect_same_digest(lb_cold lb_warm lb_flags)
expect_all_cached(lb_warm)

set(matrix ${PLAN_DIR}/method_matrix.json)
run_campaign(mm_cold --plan ${matrix} --threads=4 --cache-dir=matrix-cache)
run_campaign(mm_warm --plan ${matrix} --threads=4 --cache-dir=matrix-cache
             --require-cached)
expect_same_digest(mm_cold mm_warm)
