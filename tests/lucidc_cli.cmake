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

# --cache-dir: a cold run stores the artifact; running again, and running on
# a reformatted copy, are served from the cache (one hit each) with the same
# text. The copy keeps the file's path, which is the program name and so
# part of the key. An entry whose text record is corrupt reads as a miss:
# exit 0 and the same text, never an abort.
set(cache ${CMAKE_CURRENT_BINARY_DIR}/lucidc_cli_cache)
file(REMOVE_RECURSE ${cache})
file(READ ${INPUT} input_text)
file(WRITE ${cache}/input.lucid "${input_text}")
function(emit_cached tag)
  execute_process(COMMAND ${LUCIDC} --emit=p4 --cache-dir=${cache}/store
                          --metrics-out=${cache}/${tag}.prom
                          ${cache}/input.lucid
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "--cache-dir fixture (${tag}): exit ${rc}, expected 0")
  endif()
  set(${tag}_out "${out}" PARENT_SCOPE)
endfunction()
function(expect_cache_hit tag)
  file(READ ${cache}/${tag}.prom prom)
  if(NOT prom MATCHES "\nlucid_artifact_cache_hits_total 1\n")
    message(SEND_ERROR "--cache-dir fixture (${tag}): no cache hit in\n${prom}")
  endif()
endfunction()
emit_cached(cold)
emit_cached(again)
expect_cache_hit(again)
file(WRITE ${cache}/input.lucid
     "// reformatted\n\n${input_text}\n\n// trailing comment\n")
emit_cached(reformatted)
expect_cache_hit(reformatted)
file(GLOB entries ${cache}/store/*.art)
list(LENGTH entries n_entries)
if(NOT n_entries EQUAL 1)
  message(SEND_ERROR "--cache-dir fixture: ${n_entries} entries, expected 1")
endif()
file(READ ${entries} entry)
string(REGEX REPLACE "\ntext [0-9]+\n" "\ntext -1\n" entry "${entry}")
file(WRITE ${entries} "${entry}")
emit_cached(corrupt)
foreach(tag again reformatted corrupt)
  if(NOT ${tag}_out STREQUAL cold_out)
    message(SEND_ERROR "--cache-dir fixture: ${tag} stdout differs from cold")
  endif()
endforeach()

# --cache-dir keeps warnings: the eBPF emitter warns on this program (two
# generate sites in one handler, a recirculation cycle). A run after the
# first prints the same stderr and exit code, because an entry whose
# compilation reported diagnostics is never served to --emit.
file(WRITE ${cache}/warns.lucid "event a(int x);
event b(int x);
handle a(int x) {
  generate b(x);
  generate b(x + 1);
}
handle b(int x) { generate a(x); }
")
function(emit_warns tag)
  execute_process(COMMAND ${LUCIDC} --emit=ebpf --cache-dir=${cache}/store
                          ${cache}/warns.lucid
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  set(${tag}_rc "${rc}" PARENT_SCOPE)
  set(${tag}_err "${err}" PARENT_SCOPE)
endfunction()
emit_warns(warns_cold)
emit_warns(warns_again)
if(NOT warns_cold_err MATCHES "ebpf-multi-generate")
  message(SEND_ERROR "warning fixture: cold stderr lacks the warning:\n"
                     "${warns_cold_err}")
endif()
if(NOT warns_again_rc EQUAL warns_cold_rc OR
   NOT warns_again_err STREQUAL warns_cold_err)
  message(SEND_ERROR "warning fixture: second run (exit ${warns_again_rc}) "
                     "stderr\n${warns_again_err}\ndiffers from the cold run "
                     "(exit ${warns_cold_rc})\n${warns_cold_err}")
endif()
