# lucidc command-line smoke test: the documented flows exit 0, unknown or
# removed flags are usage errors (exit 2), and an incremental recompile
# reports a compile error exactly as a cold compile does. CTest runs it as
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
expect_exit(0 --incremental-from=${INPUT} ${INPUT})
expect_exit(2 --no-such-flag ${INPUT})
# Removed: the demo modes (now examples/runtime_demo.cpp), the legacy
# aliases of --emit=p4 and --stop-after=sema, and the worker-count flags of
# the (now serial) sweep and Sema.
foreach(removed --ctrl-demo --native-demo --native-shards=4 --p4 --check
                --sema-workers=4 --jobs=4)
  expect_exit(2 ${removed} ${INPUT})
endforeach()

# An edit to `ev` moves the unchanged `handle other` down a line and breaks
# its `generate ev(a)`: the incremental run re-checks the spliced handler
# and must print the cold run's diagnostics (same line, same source text).
set(dir ${CMAKE_CURRENT_BINARY_DIR}/lucidc_cli_incremental)
file(WRITE ${dir}/old.lucid "event ev(int<<32>> a);
event other(int<<32>> a);
handle other(int<<32>> a) { generate ev(a); }
")
file(WRITE ${dir}/new.lucid "event ev(int<<32>> a,
         int<<32>> b);
event other(int<<32>> a);
handle other(int<<32>> a) { generate ev(a); }
")
execute_process(COMMAND ${LUCIDC} ${dir}/new.lucid
                RESULT_VARIABLE cold_rc OUTPUT_QUIET ERROR_VARIABLE cold_err)
execute_process(COMMAND ${LUCIDC} --incremental-from=${dir}/old.lucid
                        ${dir}/new.lucid
                RESULT_VARIABLE inc_rc OUTPUT_QUIET ERROR_VARIABLE inc_err)
if(NOT cold_rc EQUAL 1 OR NOT inc_rc EQUAL 1)
  message(SEND_ERROR "moved-decl fixture: exit ${cold_rc} cold, ${inc_rc} "
                     "incremental, expected 1 and 1")
endif()
if(NOT cold_err STREQUAL inc_err)
  message(SEND_ERROR "moved-decl fixture: incremental stderr\n${inc_err}\n"
                     "differs from cold stderr\n${cold_err}")
endif()
