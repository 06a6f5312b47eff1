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
#   * a --require-cached replay against the launcher's cache,
#   * a warm relaunch over that cache, which replays all 4 chunks in
#     the supervisor and starts no worker (no chunk log), and whose
#     provisional.json, written 1 to 4 times, ends on final.json's
#     digest and bytes,
#   * the results of a traced campaign-daemon job over --socket, driven
#     through campaign-daemon --connect: ping answers parmis-orch-v3,
#     and the same plan, submitted with chunk 0's first attempt killed
#     against the warm launch cache, settles "done" with a retry, and
#     every attempt's log named in its results exists, the killed
#     attempt's included.  `quit` then ends the daemon.
#
# Every job's last provisional.json is byte-identical to its final.json:
# the finished job is merged once and serialized once, for both files.
#
# campaign-launch, campaign-daemon and campaign-trace-merge each refuse
# an unknown flag before doing any work, and both orchestration CLIs
# refuse a --chunk-timeout-s that is not a finite number of seconds
# under 2^64 ms, and the removed --lease-timeout-s, with exit 1.
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

# A warm relaunch over the same cache never leaves the supervisor: each
# chunk is replayed from the cache in process, so no worker runs and no
# chunk log is written, and the report is the launched one.
execute_process(
  COMMAND "${LAUNCH}" --plan=${WORK_DIR}/learned.json --workers=2
          --chunks=4 --campaign-bin=${CAMPAIGN} --cache-dir=launch-cache
          --work-dir=warm-work --out=${WORK_DIR}/warm.json
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
file(GLOB_RECURSE warm_logs "${WORK_DIR}/warm-work/*.log")
if(NOT rc EQUAL 0 OR NOT err MATCHES "recovered from cache 4\\)" OR
   warm_logs)
  message(FATAL_ERROR "warm relaunch: want exit 0, 4 chunks recovered "
                      "from cache and no chunk log, got ${rc}:\n${err}\n"
                      "logs: ${warm_logs}")
endif()
expect_same_digest(launched warm)
# ... and writes provisional.json at most once per stored chunk (chunks
# that land while a write is in flight share the next one), ending on
# the final report: the provisional digest is final.json's.
string(REGEX MATCH "provisional writes ([0-9]+)" writes "${err}")
set(writes "${CMAKE_MATCH_1}")
if(writes STREQUAL "" OR writes LESS 1 OR writes GREATER 4)
  message(FATAL_ERROR "warm relaunch: want 1 to 4 provisional writes for "
                      "4 chunks, got '${writes}':\n${err}")
endif()
message(STATUS "warm relaunch: ${writes} provisional writes for 4 chunks")
expect_same_digest(warm warm-work/job1/final warm-work/job1/provisional)

# The last provisional state and final.json are one serialization.
function(expect_same_bytes job)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${WORK_DIR}/${job}/provisional.json" "${WORK_DIR}/${job}/final.json"
    RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${job}: provisional.json does not end on "
                        "final.json's bytes")
  endif()
endfunction()
expect_same_bytes(launch-work/job1)
expect_same_bytes(warm-work/job1)

expect_rejected("${LAUNCH}" ${plan} --workerz=2 --work-dir=typo-work)
if(EXISTS "${WORK_DIR}/typo-work")
  message(FATAL_ERROR "campaign-launch made a work dir despite a bad flag")
endif()
expect_rejected("${LAUNCH}" ${plan} --workers=-1)
expect_rejected("${DAEMON}" --workerz=2)
expect_rejected("${TRACE_MERGE}" --dirr=launch-work --out=stitched.json)

# Timeouts are one finite number of seconds: a unit, a bare flag, a
# non-finite value, a negative one or one past 2^64 ms is refused, and
# so is the removed --lease-timeout-s.
foreach(bad --chunk-timeout-s=2s --chunk-timeout-s --chunk-timeout-s=inf
        --chunk-timeout-s=nan --chunk-timeout-s=-1 --chunk-timeout-s=1e300
        --lease-timeout-s=1)
  expect_rejected("${LAUNCH}" ${plan} --work-dir=timeout-work ${bad})
  set(launch_rc "${rejected_rc}")
  expect_rejected("${DAEMON}" --work-dir=timeout-work ${bad})
  if(NOT launch_rc EQUAL 1 OR NOT rejected_rc EQUAL 1)
    message(FATAL_ERROR "${bad}: want exit 1 from both CLIs, got "
                        "${launch_rc} and ${rejected_rc}")
  endif()
endforeach()
if(EXISTS "${WORK_DIR}/timeout-work")
  message(FATAL_ERROR "a work dir was made despite a bad timeout flag")
endif()

# ---------------------------------------------------------------- daemon
# The daemon runs in the background of one shell; the client waits for
# its socket file, pings, submits, polls the job until it settles, asks
# for its results, and quit shuts the daemon down.
execute_process(
  COMMAND sh -c [=[
    "$1" --socket=orch.sock --workers=2 --chunks=4 --inject-kill-chunk=0 \
      --campaign-bin="$2" --cache-dir=launch-cache --work-dir=daemon-work \
      --trace 2> daemon_server.err &
    server=$!
    i=0
    while [ ! -S orch.sock ] && [ $i -lt 400 ]; do
      sleep 0.05
      i=$((i + 1))
    done
    ask() { printf '%s\n' "$1" | "$2" --connect=orch.sock; }
    client=0
    { ask '{"op":"ping"}' "$1" &&
      ask '{"op":"submit","plan_path":"learned.json","id":"smoke"}' "$1"
    } > daemon_client.out || client=1
    i=0
    while [ $client -eq 0 ] && [ $i -lt 1200 ]; do
      ask '{"op":"status","job":1}' "$1" > daemon_status.out || client=1
      grep -q '"state":"\(done\|failed\|cancelled\)"' daemon_status.out \
        && break
      sleep 0.1
      i=$((i + 1))
    done
    ask '{"op":"results","job":1}' "$1" > daemon_results.out || client=1
    ask '{"op":"quit"}' "$1" > /dev/null || client=1
    [ $client -eq 0 ] || kill $server 2> /dev/null
    wait $server
    server=$?
    exit $((client + server))
  ]=] sh "${DAEMON}" "${CAMPAIGN}"
  WORKING_DIRECTORY "${WORK_DIR}"
  TIMEOUT 300
  RESULT_VARIABLE rc)
foreach(part server.err client.out status.out results.out)
  string(REPLACE "." "_" var "${part}")
  set(${var} "")
  if(EXISTS "${WORK_DIR}/daemon_${part}")
    file(READ "${WORK_DIR}/daemon_${part}" ${var})
  endif()
endforeach()
set(transcript "${server_err}\n${client_out}\n${status_out}\n${results_out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "daemon smoke failed (${rc}):\n${transcript}")
endif()
if(NOT client_out MATCHES "\"protocol\":\"parmis-orch-v3\"")
  message(FATAL_ERROR "ping did not answer parmis-orch-v3:\n${client_out}")
endif()
string(REGEX MATCH "\"retries\":([0-9]+)" retries "${status_out}")
set(retries "${CMAKE_MATCH_1}")
if(NOT status_out MATCHES "\"state\":\"done\"" OR retries STREQUAL "" OR
   retries LESS 1)
  message(FATAL_ERROR "want a done job with a retry:\n${transcript}")
endif()
read_digest(launched launched_digest)
string(REGEX MATCH "\"([0-9a-f]+)\"$" launched_digest "${launched_digest}")
set(want "${CMAKE_MATCH_1}")
string(REGEX MATCH "\"digest\":\"([0-9a-f]+)\"" got "${results_out}")
set(got "${CMAKE_MATCH_1}")
if(NOT results_out MATCHES "\"final\":true" OR NOT got STREQUAL want)
  message(FATAL_ERROR "daemon results ${got} differ from the launched "
                      "${want}:\n${results_out}")
endif()
# Every attempt's log exists, the killed first attempt of chunk 0
# included: the supervisor opens a log before its child runs.
string(REGEX MATCHALL "\"log\":\"[^\"]+\"" logs "${results_out}")
if(NOT logs MATCHES "chunk_0_attempt_0\\.log")
  message(FATAL_ERROR "no log for the killed attempt:\n${results_out}")
endif()
foreach(entry ${logs})
  string(REGEX REPLACE "^\"log\":\"(.*)\"$" "\\1" log "${entry}")
  if(NOT IS_ABSOLUTE "${log}")
    set(log "${WORK_DIR}/${log}")
  endif()
  if(NOT EXISTS "${log}")
    message(FATAL_ERROR "results name a log that does not exist: ${log}")
  endif()
endforeach()
expect_same_bytes(daemon-work/job1)
message(STATUS "daemon: done with ${retries} retries, digest ${got}")
