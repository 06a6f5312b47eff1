# Paper-reproduction benches end to end at toy budgets, plus hostile
# flags.
#
#   cmake -DBENCH_DIR=path/to/build -P tests/bench_smoke.cmake
#
# Registered with ctest as bench_smoke (only when PARMIS_BUILD_BENCH is
# ON).  Every fig and ablation binary runs with --iterations 2
# --rl-episodes 2 --grid 2 and must exit 0, print its table header and
# print no NaN.  Every hostile case must exit 2 with one line on stderr.
# Each run has a timeout, so a negative budget read as a huge size_t
# fails the test instead of hanging it.
cmake_minimum_required(VERSION 3.16)  # keeps empty list fields below
if(NOT DEFINED BENCH_DIR)
  message(FATAL_ERROR "bench_smoke: -DBENCH_DIR=... is required")
endif()

set(budget --iterations 2 --rl-episodes 2 --grid 2)

# One case per entry: binary|extra arguments|table header regex.
set(runs
  "fig2_convergence||iteration +phv"
  "fig3_pareto_fronts||method +time_ratio +energy_ratio"
  "fig4_phv_comparison|--apps qsort|app +parmis +rl +il"
  "fig5_global_vs_specific|--apps qsort,sha|app +app_specific +global"
  "fig6_ppw_fronts||method +time_ratio +ppw_ratio"
  "fig7_ppw_phv|--apps qsort|app +parmis +rl +il"
  "ablation_acquisition||app +parmis +thompson +random"
  "ablation_kernel||app +rbf +matern52"
  "ablation_manycore||method +time_ratio +energy_ratio"
  "ablation_samples||S +phv_vs_s1 +front_size +wall_s"
  "ablation_tabular_rl||app +mlp_reinforce +tabular_q"
  "ablation_thermal||policy +time_open_s +time_throttled_s +slowdown")

foreach(run IN LISTS runs)
  string(REPLACE "|" ";" fields "${run}")
  list(GET fields 0 bench)
  list(GET fields 1 extra)
  list(GET fields 2 header)
  separate_arguments(extra_args UNIX_COMMAND "${extra}")
  execute_process(
    COMMAND "${BENCH_DIR}/${bench}" ${budget} ${extra_args}
    TIMEOUT 60
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${bench} ${extra}: exit '${rc}'\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  if(NOT out MATCHES "${header}")
    message(FATAL_ERROR "${bench}: no table header '${header}'\n${out}")
  endif()
  if(out MATCHES "[ -]nan[ \n]")
    message(FATAL_ERROR "${bench}: NaN in the output\n${out}")
  endif()
  message(STATUS "${bench} ${extra} -> ok")
endforeach()

# One hostile case per string: binary and arguments, space-separated.
set(hostile
  "fig2_convergence --iterations -1"
  "fig4_phv_comparison --rl-episodes -3"
  "fig2_convergence --grid 0"
  "fig4_phv_comparison --grid 1"
  "fig5_global_vs_specific --iterations=abc"
  "fig4_phv_comparison --apps nope"
  "fig4_phv_comparison --apps ,"
  "fig7_ppw_phv --apps qsort,qsort"
  "fig2_convergence --bogus"
  "fig3_pareto_fronts --apps qsort"
  "ablation_kernel stray-argument")

foreach(case IN LISTS hostile)
  separate_arguments(case_args UNIX_COMMAND "${case}")
  list(POP_FRONT case_args bench)
  execute_process(
    COMMAND "${BENCH_DIR}/${bench}" ${case_args}
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
