# Traced == untraced through the campaign CLI: the same small campaign,
# run once with --trace-out and once without, must report the same
# objectives_digest, and the traced run must write a trace document.
#
#   cmake -DCAMPAIGN=path/to/campaign -DWORK_DIR=scratch/dir \
#         -P tests/cli_trace_digest.cmake
#
# Registered with ctest as cli_trace_digest.  The in-process version of
# this contract is DigestNeutrality.* in obs_test.cpp; this one covers
# the CLI's --trace-out plumbing end to end.
foreach(var CAMPAIGN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_trace_digest: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(flags --scenarios=xu3-mibench-te --methods=parmis,performance --seeds=2
          --seed=1 --anchor-limit=3 --threads=2)

function(run_campaign label)
  execute_process(
    COMMAND "${CAMPAIGN}" ${flags} --json=${WORK_DIR}/${label}.json ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label} campaign failed (${rc}):\n${out}\n${err}")
  endif()
endfunction()

function(read_digest label out_var)
  file(READ "${WORK_DIR}/${label}.json" doc)
  string(REGEX MATCH "\"objectives_digest\": \"[0-9a-f]+\"" digest "${doc}")
  if(digest STREQUAL "")
    message(FATAL_ERROR "${label}: no objectives_digest in its report")
  endif()
  set(${out_var} "${digest}" PARENT_SCOPE)
endfunction()

run_campaign(traced --trace-out=${WORK_DIR}/trace.json)
run_campaign(untraced)

file(READ "${WORK_DIR}/trace.json" trace)
if(NOT trace MATCHES "\"traceEvents\"")
  message(FATAL_ERROR "traced run wrote no trace-event document")
endif()

read_digest(traced traced_digest)
read_digest(untraced untraced_digest)
message(STATUS "traced   ${traced_digest}")
message(STATUS "untraced ${untraced_digest}")
if(NOT traced_digest STREQUAL untraced_digest)
  message(FATAL_ERROR "tracing changed the campaign digest")
endif()
