# The campaign CLI's observability artifacts, checked from the files.
#
#   cmake -DCAMPAIGN=path/to/campaign -DWORK_DIR=scratch/dir -DOBS=ON \
#         -P tests/cli_obs_artifacts.cmake
#
# Registered with ctest as cli_obs_artifacts; OBS is the build's
# PARMIS_OBS setting (any CMake boolean).  The campaign is parmis + a
# governor over two seeds against a fresh cache, so every instrumented
# layer fires: campaign cell spans and cache counters, cache latency
# histograms, GP fit/predict and acquisition spans, and the pool depth
# gauge.
#
# OBS=ON:
#  - --trace-out is a Chrome trace-event document with campaign, gp and
#    acq spans ("ph": "X") and thread metadata ("ph": "M");
#  - --metrics-out carries the parmis-metrics-v1 schema with the
#    expected series, and --metrics-prom is scrapeable text;
#  - the cache counters equal the report's own cache_misses on the cold
#    run and cache_hits on a --require-cached rerun (which records no
#    misses series).
# OBS=OFF: the same flags write valid-but-empty artifacts — thread
# metadata only, the schema with no campaign series.
# That traced and untraced runs agree bit for bit is cli_trace_digest.
cmake_minimum_required(VERSION 3.19)  # string(JSON), IN_LIST
include(${CMAKE_CURRENT_LIST_DIR}/cli_common.cmake)
if(NOT DEFINED OBS)
  message(FATAL_ERROR "${CMAKE_SCRIPT_MODE_FILE}: -DOBS=ON|OFF is required")
endif()

set(flags --scenarios=xu3-mibench-te --methods=parmis,performance --seeds=2
          --seed=1 --anchor-limit=3 --threads=4)

# read_json(<var> <file>): the file's text.
function(read_json var file)
  file(READ "${WORK_DIR}/${file}" text)
  set(${var} "${text}" PARENT_SCOPE)
endfunction()

# expect_series(<doc> <present> <name>...): each series is in (TRUE) or
# absent from (FALSE) the metrics document's "metrics" object.
function(expect_series doc present)
  foreach(name ${ARGN})
    string(JSON type ERROR_VARIABLE missing GET "${doc}" metrics ${name} type)
    if(present AND missing)
      message(FATAL_ERROR "metrics document lacks series ${name}")
    elseif(NOT present AND NOT missing)
      message(FATAL_ERROR "metrics document has series ${name}")
    endif()
  endforeach()
endfunction()

# expect_counter_equals_report(<metrics> <report> <series> <field>)
function(expect_counter_equals_report metrics report series field)
  string(JSON counted GET "${metrics}" metrics ${series} value)
  string(JSON reported GET "${report}" ${field})
  message(STATUS "${series} = ${counted}, report ${field} = ${reported}")
  if(NOT counted EQUAL reported OR NOT counted GREATER 0)
    message(FATAL_ERROR "${series} (${counted}) does not equal the "
                        "report's ${field} (${reported}), or is zero")
  endif()
endfunction()

run_campaign(cold ${flags} --cache-dir=${WORK_DIR}/cache
             --trace-out=${WORK_DIR}/trace.json
             --metrics-out=${WORK_DIR}/metrics.json
             --metrics-prom=${WORK_DIR}/metrics.prom)

# Trace: which span categories and phases the document holds.
read_json(trace trace.json)
string(JSON n_events LENGTH "${trace}" traceEvents)
set(span_cats "")
set(phases "")
math(EXPR last "${n_events} - 1")
foreach(i RANGE ${last})
  string(JSON event GET "${trace}" traceEvents ${i})
  string(JSON ph GET "${event}" ph)
  list(APPEND phases ${ph})
  if(ph STREQUAL "X")
    string(JSON cat GET "${event}" cat)
    list(APPEND span_cats ${cat})
  endif()
endforeach()
list(REMOVE_DUPLICATES phases)
list(REMOVE_DUPLICATES span_cats)
message(STATUS "trace: ${n_events} events, phases ${phases}, "
               "span categories ${span_cats}")
if(NOT "M" IN_LIST phases)
  message(FATAL_ERROR "trace has no thread metadata")
endif()

read_json(metrics metrics.json)
string(JSON schema GET "${metrics}" schema)
if(NOT schema STREQUAL "parmis-metrics-v1")
  message(FATAL_ERROR "metrics schema is '${schema}'")
endif()

if(NOT OBS)
  if(NOT phases STREQUAL "M")
    message(FATAL_ERROR "OBS=OFF build recorded spans: ${phases}")
  endif()
  expect_series("${metrics}" FALSE parmis_campaign_cache_misses_total)
  return()
endif()

foreach(cat campaign gp acq)
  if(NOT cat IN_LIST span_cats)
    message(FATAL_ERROR "trace has no ${cat} spans")
  endif()
endforeach()
expect_series("${metrics}" TRUE parmis_campaign_cache_misses_total
              parmis_cache_lookup_ns parmis_acq_candidates_total
              parmis_exec_pool_queue_depth)
read_json(cold_report cold.json)
expect_counter_equals_report("${metrics}" "${cold_report}"
                             parmis_campaign_cache_misses_total cache_misses)

read_json(prom metrics.prom)
if(NOT prom MATCHES "(^|\n)parmis_acq_candidates_total " OR
   NOT prom MATCHES
       "(^|\n)# TYPE parmis_campaign_cache_misses_total counter\n")
  message(FATAL_ERROR "metrics.prom lacks the expected series:\n${prom}")
endif()

# A fully cached rerun: every cell is a counted hit, none a miss.
run_campaign(warm ${flags} --cache-dir=${WORK_DIR}/cache --require-cached
             --metrics-out=${WORK_DIR}/metrics_warm.json)
read_json(warm_metrics metrics_warm.json)
read_json(warm_report warm.json)
expect_counter_equals_report("${warm_metrics}" "${warm_report}"
                             parmis_campaign_cache_hits_total cache_hits)
expect_series("${warm_metrics}" FALSE parmis_campaign_cache_misses_total)
expect_same_digest(cold warm)
