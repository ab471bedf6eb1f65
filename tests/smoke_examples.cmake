# Runs every example program once; any nonzero exit fails the test.
# ctest invokes this as
#   cmake -DQUICKSTART=<bin> -DDESIGN_SPACE_EXPLORER=<bin>
#         -DCACHE_WARMUP_STUDY=<bin> -DCUSTOM_WORKLOAD=<bin>
#         -DOUT_DIR=<dir> -P smoke_examples.cmake
# with SPLAB_* set in the test environment (inherited by the runs).

function(run_example)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "'${ARGN}' failed: ${rc}")
    endif()
endfunction()

file(MAKE_DIRECTORY ${OUT_DIR})
run_example(${QUICKSTART})
run_example(${DESIGN_SPACE_EXPLORER})
run_example(${CACHE_WARMUP_STUDY})
run_example(${CUSTOM_WORKLOAD} ${OUT_DIR})
