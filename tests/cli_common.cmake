# Helpers shared by the campaign-CLI contract scripts: each runs the
# campaign binary ${CAMPAIGN} inside ${WORK_DIR}, which it recreates.
#
#   include(${CMAKE_CURRENT_LIST_DIR}/cli_common.cmake)
foreach(var CAMPAIGN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${CMAKE_SCRIPT_MODE_FILE}: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run_cli(<label> <arg>...): runs the campaign with the arguments; a
# non-zero exit is fatal and names <label>.
function(run_cli label)
  execute_process(
    COMMAND "${CAMPAIGN}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label} campaign failed (${rc}):\n${out}\n${err}")
  endif()
endfunction()

# run_campaign(<label> <arg>...): run_cli, writing the report to
# ${WORK_DIR}/<label>.json.
function(run_campaign label)
  run_cli(${label} ${ARGN} --json=${WORK_DIR}/${label}.json)
endfunction()

# read_digest(<label> <out_var>): the objectives_digest of <label>'s
# report.
function(read_digest label out_var)
  file(READ "${WORK_DIR}/${label}.json" doc)
  string(REGEX MATCH "\"objectives_digest\": \"[0-9a-f]+\"" digest "${doc}")
  if(digest STREQUAL "")
    message(FATAL_ERROR "${label}: no objectives_digest in its report")
  endif()
  set(${out_var} "${digest}" PARENT_SCOPE)
endfunction()

# expect_same_digest(<label> <other>...): every other report carries
# the first one's digest.
function(expect_same_digest first)
  read_digest(${first} want)
  message(STATUS "${first}: ${want}")
  foreach(label ${ARGN})
    read_digest(${label} got)
    message(STATUS "${label}: ${got}")
    if(NOT got STREQUAL want)
      message(FATAL_ERROR "${label} digest differs from ${first}")
    endif()
  endforeach()
endfunction()

# expect_rejected(<binary> <arg>...): the binary refuses the arguments
# before doing any work: a non-zero exit, nothing on stdout and one
# line on stderr, which is left in ${rejected_err} (the exit status in
# ${rejected_rc}).  Stdin is empty, so
# a server that failed to refuse ends at once instead of waiting for
# requests.
function(expect_rejected binary)
  execute_process(
    COMMAND "${binary}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    INPUT_FILE /dev/null
    TIMEOUT 20
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(STRIP "${err}" err)
  string(FIND "${err}" "\n" newline)
  if(rc STREQUAL "0" OR NOT out STREQUAL "" OR err STREQUAL "" OR
     NOT newline EQUAL -1)
    message(FATAL_ERROR "${binary} ${ARGN}: want a non-zero exit, no "
                        "stdout and one stderr line, got '${rc}'\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  message(STATUS "${ARGN} -> ${err}")
  set(rejected_err "${err}" PARENT_SCOPE)
  set(rejected_rc "${rc}" PARENT_SCOPE)
endfunction()
