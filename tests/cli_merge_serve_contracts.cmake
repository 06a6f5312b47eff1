# Shard-merge and serve-replay contracts, end to end through the
# campaign, campaign-merge, policy-serve and plugin_method binaries:
#
#   * merge: the sharded example plan runs as 3 shard processes over one
#     cache dir; campaign-merge joins the shard reports out of order
#     (strict tiling), and the merged digest equals the unsharded run's,
#     which is --require-cached (the shards computed every cell exactly
#     once); one complete report re-merges as a no-op; the merge's
#     analytics carry their schema;
#   * plugin: the out-of-tree method example runs its plan end to end;
#   * serve: one canned request file replayed against the merged report
#     and against its unsharded twin gives byte-identical responses (but
#     for ping's wall-clock uptime_s) and equal decision digests;
#   * socket: policy-serve --socket on the merged report answers ping,
#     decide, reload and quit sent through policy-serve --connect; the
#     decide binds the powersave mode and the reload reports as many
#     entries as the first load;
#   * hostile reports: a report truncated mid-number, one with a digit
#     of a front value changed and one with a repeated "cells" key are
#     refused by campaign-merge and policy-serve with one stderr line
#     naming the file and either the line/column or the digest mismatch;
#   * flags: campaign-merge and policy-serve refuse an unknown flag
#     before doing any work.
#
#   cmake -DCAMPAIGN=path/to/campaign -DMERGE=path/to/campaign-merge \
#         -DSERVE=path/to/policy-serve -DPLUGIN=path/to/plugin_method \
#         -DEXAMPLES_DIR=examples -DWORK_DIR=work/dir \
#         -P tests/cli_merge_serve_contracts.cmake
#
# Registered with ctest as cli_merge_serve_contracts.
foreach(var MERGE SERVE PLUGIN EXAMPLES_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_merge_serve_contracts: -D${var}=... is required")
  endif()
endforeach()
include(${CMAKE_CURRENT_LIST_DIR}/cli_common.cmake)

# run_tool(<label> <binary> <arg>...): runs <binary> in ${WORK_DIR},
# its output to <label>.out and <label>.err; a non-zero exit is fatal.
function(run_tool label binary)
  execute_process(
    COMMAND "${binary}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_FILE "${WORK_DIR}/${label}.out"
    ERROR_FILE "${WORK_DIR}/${label}.err")
  if(NOT rc EQUAL 0)
    file(READ "${WORK_DIR}/${label}.err" err)
    message(FATAL_ERROR "${label} failed (${rc}):\n${err}")
  endif()
endfunction()

# ---------------------------------------------------------------- merge
set(sharded ${EXAMPLES_DIR}/plans/manycore_sharded.json)
foreach(i 0 1 2)
  run_campaign(shard_${i} --plan ${sharded} --shard-index=${i}
               --shard-count=3 --threads=4 --cache-dir=merge-cache)
endforeach()
run_tool(merge "${MERGE}" shard_2.json shard_0.json shard_1.json --strict
         --tables -o merged.json --analytics=ranking.json)
run_campaign(full --plan ${sharded} --shard-index=0 --shard-count=1
             --threads=4 --cache-dir=merge-cache --require-cached)
run_tool(remerge "${MERGE}" full.json --strict -o remerged.json)
expect_same_digest(full merged remerged)
file(READ "${WORK_DIR}/ranking.json" ranking)
if(NOT ranking MATCHES "\"schema\": \"parmis-analytics-v1\"")
  message(FATAL_ERROR "ranking.json: not a parmis-analytics-v1 document")
endif()

# --------------------------------------------------------------- plugin
run_tool(plugin "${PLUGIN}" ${EXAMPLES_DIR}/plugin_method/toy_plan.json)

# ---------------------------------------------------------------- serve
set(modes --modes=${EXAMPLES_DIR}/serve/modes.json)
run_tool(list_modes "${SERVE}" --list-modes ${modes})
foreach(report merged full)
  run_tool(replay_${report} "${SERVE}" ${report}.json ${modes}
           --replay=${EXAMPLES_DIR}/serve/requests.jsonl)
  file(READ "${WORK_DIR}/replay_${report}.err" err)
  string(REGEX MATCH "digest [0-9a-f]+" digest_${report} "${err}")
  if(digest_${report} STREQUAL "")
    message(FATAL_ERROR "replay of ${report}.json printed no digest:\n${err}")
  endif()
  message(STATUS "replay ${report}: ${digest_${report}}")
endforeach()
set(uptime "\"uptime_s\":[-+.0-9e]+")
file(READ "${WORK_DIR}/replay_merged.out" merged_out)
file(READ "${WORK_DIR}/replay_full.out" full_out)
string(REGEX REPLACE "${uptime}" "\"uptime_s\":_" merged_out "${merged_out}")
string(REGEX REPLACE "${uptime}" "\"uptime_s\":_" full_out "${full_out}")
if(merged_out STREQUAL "" OR NOT merged_out STREQUAL full_out)
  message(FATAL_ERROR "replay responses differ between merged.json and "
                      "full.json (or are empty)")
endif()
if(NOT digest_merged STREQUAL digest_full)
  message(FATAL_ERROR "replay digests differ: merged ${digest_merged}, "
                      "full ${digest_full}")
endif()

# --------------------------------------------------------------- socket
# The server runs in the background of one shell; the client waits for
# its socket file, then sends the requests and quit shuts both down.
execute_process(
  COMMAND sh -c [=[
    "$1" merged.json --socket=serve.sock 2> socket_server.err &
    server=$!
    i=0
    while [ ! -S serve.sock ] && [ $i -lt 400 ]; do
      sleep 0.05
      i=$((i + 1))
    done
    printf '%s\n' \
      '{"op":"ping","id":"loopback"}' \
      '{"op":"decide","scenario":"manycore-mixed-te","mode":"powersave"}' \
      '{"op":"reload","id":"again"}' \
      '{"op":"quit"}' \
      | "$1" --connect=serve.sock > socket_client.out
    client=$?
    [ $client -eq 0 ] || kill $server 2> /dev/null
    wait $server
    server=$?
    exit $((client + server))
  ]=] sh "${SERVE}"
  WORKING_DIRECTORY "${WORK_DIR}"
  TIMEOUT 60
  RESULT_VARIABLE rc)
file(READ "${WORK_DIR}/socket_server.err" server_err)
file(READ "${WORK_DIR}/socket_client.out" client_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "socket smoke failed (${rc}):\n${server_err}\n"
                      "${client_out}")
endif()
string(REGEX MATCH "serving ([0-9]+) \\(scenario" loaded "${server_err}")
set(loaded_entries "${CMAKE_MATCH_1}")
string(REGEX MATCH "\"id\":\"again\"[^\n]*\"entries\":([0-9]+)" reloaded
       "${client_out}")
set(reloaded_entries "${CMAKE_MATCH_1}")
if(NOT client_out MATCHES "\"mode\":\"powersave\"" OR
   loaded_entries STREQUAL "" OR
   NOT reloaded_entries STREQUAL loaded_entries)
  message(FATAL_ERROR "socket smoke: want a powersave decide and a reload "
                      "of ${loaded_entries} entries, got:\n${client_out}")
endif()
message(STATUS "socket: powersave decided, reload of ${reloaded_entries} "
               "entries")

# ------------------------------------------------------- hostile reports
file(READ "${WORK_DIR}/merged.json" doc)
# Truncated inside the first phv value.
string(FIND "${doc}" "\"phv\": " at)
math(EXPR at "${at} + 9")
string(SUBSTRING "${doc}" 0 ${at} truncated)
file(WRITE "${WORK_DIR}/truncated.json" "${truncated}")
# One digit of the first front value changed (a 9 becomes an 8, any
# other digit d becomes d + 1), so the number stays valid JSON.
string(REGEX MATCH "\"front\": \\[\n +\\[-?[0-9]" head "${doc}")
string(FIND "${doc}" "${head}" at)
string(LENGTH "${head}" length)
math(EXPR at "${at} + ${length} - 1")
string(SUBSTRING "${doc}" ${at} 1 digit)
if(digit EQUAL 9)
  set(digit 8)
else()
  math(EXPR digit "${digit} + 1")
endif()
string(SUBSTRING "${doc}" 0 ${at} before)
math(EXPR at "${at} + 1")
string(SUBSTRING "${doc}" ${at} -1 after)
file(WRITE "${WORK_DIR}/flipped.json" "${before}${digit}${after}")
# A second, empty "cells" member ahead of the real one.
string(REPLACE "\"cells\": [" "\"cells\": [],\n  \"cells\": [" repeated
       "${doc}")
file(WRITE "${WORK_DIR}/repeated.json" "${repeated}")
set(names_the_fault
    "(json: line [0-9]+, col [0-9]+|objectives digest mismatch)")
foreach(bad truncated flipped repeated)
  expect_rejected("${MERGE}" ${bad}.json -o ${bad}_out.json)
  set(merge_err "${rejected_err}")
  expect_rejected("${SERVE}" ${bad}.json)
  foreach(err "${merge_err}" "${rejected_err}")
    if(NOT err MATCHES "${bad}\\.json: ${names_the_fault}")
      message(FATAL_ERROR "${bad}.json: the error names neither the "
                          "position nor the digest: ${err}")
    endif()
  endforeach()
endforeach()

# ---------------------------------------------------------------- flags
expect_rejected("${MERGE}" full.json --stirct -o typo.json)
expect_rejected("${SERVE}" merged.json --replya=requests.jsonl)
