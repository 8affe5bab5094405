# ctest helper: runs a tool that must reject its command line. Passes only
# if the tool exits with EXPECT_RC (a crash or a silently accepted value
# fails) and its stderr matches the regex EXPECT_STDERR.
#
#   cmake -DEXPECT_RC=N -DEXPECT_STDERR=REGEX -P expect_usage_error.cmake \
#         -- TOOL ARGS...

set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "no command after --")
endif()

execute_process(COMMAND ${command}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "expected exit code ${EXPECT_RC}, got '${rc}'\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
message(STATUS "exit ${rc}: ${err}")
