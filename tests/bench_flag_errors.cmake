# Checks that the benches fail like ftspan_cli on a bad command line: a
# malformed flag value prints "error: ..." and exits 1 (not std::terminate),
# and a flag a CI-gated bench does not take exits 2 before running anything.
# ctest drives it (the bench_flag_errors case in CMakeLists.txt):
#   cmake -DE4=<bench_e4_runtime> -DE13=<bench_e13_baselines>
#         -P bench_flag_errors.cmake
function(expect_exit code)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc ERROR_VARIABLE err
                  OUTPUT_QUIET)
  if(NOT rc STREQUAL "${code}" OR NOT err MATCHES "^error: ")
    message(FATAL_ERROR "${ARGN}: exit '${rc}', expected ${code} and an "
                        "'error: ' line; stderr:\n${err}")
  endif()
endfunction()

expect_exit(1 ${E4} --reps 2x)
expect_exit(2 ${E13} --bogus 1)
