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
include(${CMAKE_CURRENT_LIST_DIR}/cli_common.cmake)

set(flags --scenarios=xu3-mibench-te --methods=parmis,performance --seeds=2
          --seed=1 --anchor-limit=3 --threads=2)

run_campaign(traced ${flags} --trace-out=${WORK_DIR}/trace.json)
run_campaign(untraced ${flags})

file(READ "${WORK_DIR}/trace.json" trace)
if(NOT trace MATCHES "\"traceEvents\"")
  message(FATAL_ERROR "traced run wrote no trace-event document")
endif()

expect_same_digest(traced untraced)
