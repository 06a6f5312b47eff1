# Examples end to end at toy budgets, plus hostile flags.
#
#   cmake -DEXAMPLE_DIR=path/to/build -DEXAMPLES_DIR=examples \
#         -DWORK_DIR=work/dir -P tests/examples_smoke.cmake
#
# Registered with ctest as examples_smoke (only when
# PARMIS_BUILD_EXAMPLES is ON).  Every example runs inside ${WORK_DIR}
# (campaign_quickstart writes a CSV there) and must exit 0, print its
# closing line and print no NaN.  Every hostile case must exit 2 with
# one line on stderr.  Each run has a timeout, so a negative budget read
# as a huge count fails the test instead of hanging it.
cmake_minimum_required(VERSION 3.16)  # keeps empty list fields below
foreach(var EXAMPLE_DIR EXAMPLES_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "examples_smoke: -D${var}=... is required")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# One case per entry: binary|arguments|closing-line regex.
set(runs
  "quickstart|--iterations 2|Knee-point .*selects parmis-"
  "custom_objective|--iterations 2|zero framework changes"
  "global_policies|--iterations 2|without ever training on this app"
  "governor_comparison|--policy-iterations 2|total_power_w"
  "campaign_quickstart||wrote campaign_quickstart.csv"
  "serving_quickstart|--seeds 1|held snapshot still answers"
  "plugin_method|${EXAMPLES_DIR}/plugin_method/toy_plan.json|ran through the registry")

foreach(run IN LISTS runs)
  string(REPLACE "|" ";" fields "${run}")
  list(GET fields 0 example)
  list(GET fields 1 args)
  list(GET fields 2 closing)
  separate_arguments(run_args UNIX_COMMAND "${args}")
  execute_process(
    COMMAND "${EXAMPLE_DIR}/${example}" ${run_args}
    WORKING_DIRECTORY "${WORK_DIR}"
    TIMEOUT 60
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${example} ${args}: exit '${rc}'\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  if(NOT out MATCHES "${closing}")
    message(FATAL_ERROR "${example}: no closing line '${closing}'\n${out}")
  endif()
  if(out MATCHES "[ -]nan[ \n]")
    message(FATAL_ERROR "${example}: NaN in the output\n${out}")
  endif()
  message(STATUS "${example} ${args} -> ok")
endforeach()

# One hostile case per string: binary and arguments, space-separated.
set(hostile
  "quickstart --app nosuch"
  "quickstart --iterations -1"
  "quickstart --iterations=abc"
  "quickstart --bogus"
  "custom_objective --iterations 3x"
  "global_policies --holdout nosuch"
  "governor_comparison --policy-iterations 0"
  "campaign_quickstart --bogus"
  "serving_quickstart --seeds=-2"
  "serving_quickstart stray-argument"
  "plugin_method --bogus"
  "plugin_method no-such-plan.json")

foreach(case IN LISTS hostile)
  separate_arguments(case_args UNIX_COMMAND "${case}")
  list(POP_FRONT case_args example)
  execute_process(
    COMMAND "${EXAMPLE_DIR}/${example}" ${case_args}
    WORKING_DIRECTORY "${WORK_DIR}"
    TIMEOUT 20
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(STRIP "${err}" err)
  string(FIND "${err}" "\n" newline)
  if(NOT rc STREQUAL "2" OR err STREQUAL "" OR NOT newline EQUAL -1)
    message(FATAL_ERROR
            "${case}: want exit 2 and one stderr line, got '${rc}'\n"
            "stdout:\n${out}\nstderr:\n${err}")
  endif()
  message(STATUS "${case} -> ${err}")
endforeach()
