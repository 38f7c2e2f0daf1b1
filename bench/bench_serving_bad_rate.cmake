# Test script (run via `cmake -DBENCH_SERVING=<bin>
# -P bench_serving_bad_rate.cmake` from ctest, see
# bench/CMakeLists.txt): `bench_serving --fault-rate=6000` passes the
# front end's check against the default arrival span, but expects
# 576000 faults over the sweep's widest point (48 requests x 2000000
# cycles). It must exit 2 and name the rate before simulating
# anything, so stdout stays empty.

if(NOT DEFINED BENCH_SERVING)
    message(FATAL_ERROR "pass -DBENCH_SERVING=...")
endif()

execute_process(COMMAND ${BENCH_SERVING} --fault-rate=6000
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got ${rc}:\n${err}")
endif()
if(NOT out STREQUAL "")
    message(FATAL_ERROR "expected no output before the error:\n${out}")
endif()
if(NOT err MATCHES "serving.faults.rate: rate 6000 expects")
    message(FATAL_ERROR "expected the rate error, got:\n${err}")
endif()
message(STATUS "bench_serving rejects the rate: ${err}")
