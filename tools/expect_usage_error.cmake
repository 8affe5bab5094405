# ctest helper: runs a tool that must reject its input. Passes only if the
# tool exits with EXPECT_RC (a crash or a silently accepted value fails),
# its stderr matches the regex EXPECT_STDERR (when given), and its stdout
# matches every regex of the list EXPECT_STDOUT (when given).
#
#   cmake -DEXPECT_RC=N [-DEXPECT_STDERR=REGEX] [-DEXPECT_STDOUT=RE1;RE2...]
#         -P expect_usage_error.cmake -- TOOL ARGS...

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
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
foreach(pattern IN LISTS EXPECT_STDOUT)
  if(NOT out MATCHES "${pattern}")
    message(FATAL_ERROR "stdout does not match '${pattern}':\n${out}")
  endif()
endforeach()
message(STATUS "exit ${rc}: ${err}")
