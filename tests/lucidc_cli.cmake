# lucidc command-line smoke test: the documented flows exit 0, and unknown
# or removed flags are usage errors (exit 2). CTest runs it as
# test_lucidc_cli:
#
#   cmake -DLUCIDC=build/lucidc -DINPUT=examples/rate_meter.lucid \
#         -P tests/lucidc_cli.cmake
function(expect_exit code)
  execute_process(COMMAND ${LUCIDC} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL code)
    string(JOIN " " args ${ARGN})
    message(SEND_ERROR "lucidc ${args}: exit ${rc}, expected ${code}")
  endif()
endfunction()

expect_exit(0 --emit=p4 ${INPUT})
expect_exit(0 --stop-after=sema ${INPUT})
expect_exit(0 --time-passes=json ${INPUT})
expect_exit(0 --sweep=stages=4,8 ${INPUT})
expect_exit(0 --fit=stages=1..20 ${INPUT})
expect_exit(2 --no-such-flag ${INPUT})
# Removed: the demo modes (now examples/runtime_demo.cpp), the legacy
# aliases of --emit=p4 and --stop-after=sema, and the worker-count flags of
# the (now serial) sweep and Sema.
foreach(removed --ctrl-demo --native-demo --native-shards=4 --p4 --check
                --sema-workers=4 --jobs=4)
  expect_exit(2 ${removed} ${INPUT})
endforeach()
