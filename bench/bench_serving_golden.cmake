# Test script for the serving golden check (run via
# `cmake -DBENCH_SERVING=<bin> -DGOLDEN=<json> -DOUT=<file>
# -P bench_serving_golden.cmake` from ctest, see
# bench/CMakeLists.txt): the stats-JSON registry dump of a default
# `bench_serving` run must equal the checked-in BENCH_serving.json
# byte for byte. An intended change to a serving outcome
# regenerates the golden with
# `bench_serving --stats-json=BENCH_serving.json`.

foreach(var BENCH_SERVING GOLDEN OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "pass -D${var}=...")
    endif()
endforeach()

file(REMOVE ${OUT})
execute_process(COMMAND ${BENCH_SERVING} --stats-json=${OUT}
    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_serving failed (rc=${rc}):\n${out}")
endif()

file(READ ${GOLDEN} golden)
file(READ ${OUT} dumped)
if(NOT dumped STREQUAL golden)
    message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
message(STATUS "bench_serving stats dump matches ${GOLDEN}")
