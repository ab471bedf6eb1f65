# Fig. 12 golden check: run fig12_cpi (reduced scale, artifact cache
# off; the ctest sets the environment) and compare the CSV it writes
# next to itself byte for byte with the committed golden file.
#
#   cmake -DFIG12_CPI=<fig12_cpi binary> -DGOLDEN=<golden csv>
#         -P smoke_fig12_golden.cmake
execute_process(COMMAND ${FIG12_CPI} RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fig12_cpi exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${FIG12_CPI}.csv ${GOLDEN} RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${FIG12_CPI}.csv differs from ${GOLDEN}")
endif()
