# Orchestrated-launch contract for the learned baselines, end to end
# through the campaign-launch and campaign binaries: the learned-baselines
# plan at three seeds (rl, il, dypo on xu3-synthetic-te; 9 cells) is
# launched over 2 worker processes in 4 chunks, so chunk boundaries
# split the IL and the DyPO seed runs, and chunk 1's first attempt is
# SIGKILLed.  Each worker process shares one oracle table among the IL
# and DyPO cells of its chunk; the launched digest must equal
#
#   * a single-process run at --threads=1,
#   * a --threads=4 --compare-threads run (1 vs 4 threads in one process),
#   * a --require-cached replay against the launcher's cache.
#
# campaign-launch, campaign-daemon and campaign-trace-merge each refuse
# an unknown flag before doing any work.
#
#   cmake -DCAMPAIGN=path/to/campaign -DLAUNCH=path/to/campaign-launch \
#         -DDAEMON=path/to/campaign-daemon \
#         -DTRACE_MERGE=path/to/campaign-trace-merge \
#         -DWORK_DIR=scratch/dir -P tests/cli_launch_contracts.cmake
#
# Registered with ctest as cli_launch_contracts.
foreach(var LAUNCH DAEMON TRACE_MERGE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_launch_contracts: -D${var}=... is required")
  endif()
endforeach()
include(${CMAKE_CURRENT_LIST_DIR}/cli_common.cmake)

file(WRITE "${WORK_DIR}/learned.json"
     "{\"schema\": \"parmis-plan-v1\", \"name\": \"learned-baselines-3\", "
     "\"scenarios\": [\"xu3-synthetic-te\"], "
     "\"methods\": [\"rl\", \"il\", \"dypo\"], "
     "\"seeds_per_cell\": 3, \"base_seed\": 1, \"anchor_limit\": 3}")
set(plan --plan ${WORK_DIR}/learned.json)

execute_process(
  COMMAND "${LAUNCH}" --plan=${WORK_DIR}/learned.json --workers=2
          --chunks=4 --inject-kill-chunk=1 --campaign-bin=${CAMPAIGN}
          --cache-dir=launch-cache --work-dir=launch-work
          --out=${WORK_DIR}/launched.json
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign-launch failed (${rc}):\n${out}\n${err}")
endif()
if(NOT err MATCHES "9 cells in 4 chunks")
  message(FATAL_ERROR "launch did not tile 9 cells into 4 chunks:\n${err}")
endif()
if(NOT err MATCHES "retries [1-9]")
  message(FATAL_ERROR "the killed chunk was not retried:\n${err}")
endif()

run_campaign(serial ${plan} --threads=1 --no-cache)
run_campaign(compare ${plan} --threads=4 --compare-threads --no-cache)
run_campaign(replay ${plan} --threads=4 --cache-dir=launch-cache
             --require-cached)
file(READ "${WORK_DIR}/replay.json" doc)
if(NOT doc MATCHES "\"cache_misses\": 0[,\n}]")
  message(FATAL_ERROR "replay: not served entirely from the launch cache")
endif()
expect_same_digest(launched serial compare replay)

expect_rejected("${LAUNCH}" ${plan} --workerz=2 --work-dir=typo-work)
if(EXISTS "${WORK_DIR}/typo-work")
  message(FATAL_ERROR "campaign-launch made a work dir despite a bad flag")
endif()
expect_rejected("${LAUNCH}" ${plan} --workers=-1)
expect_rejected("${DAEMON}" --workerz=2)
expect_rejected("${TRACE_MERGE}" --dirr=launch-work --out=stitched.json)
