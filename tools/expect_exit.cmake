# Runs a command and fails unless it exits with status EXPECT, so a test can
# tell a clean rejection (exit 2) from an abort (134), which WILL_FAIL cannot.
#   cmake -DEXPECT=2 -P expect_exit.cmake -- <command> [args...]
set(cmd)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
  if(after_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE status)
if(NOT "${status}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "expected exit status ${EXPECT}, got '${status}': ${cmd}")
endif()
