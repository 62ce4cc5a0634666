# Runs one seeded bench into the build tree and gates its JSON against the
# checked-in floor file.  ctest drives it (see the e13_pins / e17_pins cases
# in CMakeLists.txt):
#   cmake -DBENCH=<binary> -DOUT=<json> -DPYTHON=<python3> -DGATE=<gate.py>
#         -DFLOOR=<ci_perf_floor.json> -DSECTION=<e13|e17> -P bench_pins.cmake
execute_process(COMMAND ${BENCH} --out ${OUT} COMMAND_ERROR_IS_FATAL ANY)
execute_process(COMMAND ${PYTHON} ${GATE} ${OUT} --floor ${FLOOR}
                        --section ${SECTION}
                COMMAND_ERROR_IS_FATAL ANY)
