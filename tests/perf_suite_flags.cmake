# Hostile perf_suite flags: every case must exit 2 with one line on
# stderr, never crash, hang or run the probes.
#
#   cmake -DPERF_SUITE=path/to/perf_suite -P tests/perf_suite_flags.cmake
#
# Registered with ctest as perf_suite_flags.  Each case runs under a
# timeout, so a negative budget read as a huge size_t fails the test
# instead of hanging it.
if(NOT DEFINED PERF_SUITE)
  message(FATAL_ERROR "perf_suite_flags: -DPERF_SUITE=... is required")
endif()

# One case per string: the arguments, space-separated.
set(cases
  "serve --chunk-decisions=0"
  "serve --latency-samples=0"
  "serve --decisions=-5"
  "serve --decisions=abc"
  "serve --decisions=12abc"
  "serve --decisions=1000 --chunk-decisions=2000"
  "serve --baseline=abc"
  "serve --front=12"
  "serve --scenarios=8"
  "serve --max-overhead-pct=2"
  "campaign --seeds=0"
  "campaign --threads=0"
  "campaign --merge-shards=0"
  "campaign --merge-cells=10"
  "--smoke --bogus"
  "--smoke=maybe"
  "bogus-subcommand"
  "serve stray-argument")

foreach(case IN LISTS cases)
  separate_arguments(case_args UNIX_COMMAND "${case}")
  execute_process(
    COMMAND "${PERF_SUITE}" ${case_args}
    TIMEOUT 20
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(STRIP "${err}" err)
  string(FIND "${err}" "\n" newline)
  if(NOT rc STREQUAL "2" OR err STREQUAL "" OR NOT newline EQUAL -1)
    message(FATAL_ERROR
            "perf_suite ${case}: want exit 2 and one stderr line, got "
            "'${rc}'\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  message(STATUS "${case} -> ${err}")
endforeach()
