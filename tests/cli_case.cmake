# Runs one command-line case and checks its exit status and output:
#
#   cmake -DEXIT=<status> -DOUTPUT=<regex> -P cli_case.cmake <command> [args...]
#
# The case passes when the command exits with <status> and its stdout plus
# stderr matches <regex>. ctest's WILL_FAIL only tells zero from non-zero,
# and the tools' contract separates a usage error (2) from a config or
# runtime error (1).
set(command "")
set(script_seen FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
  if(script_seen)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "-P")
    math(EXPR script_index "${i} + 1")
  elseif(DEFINED script_index AND i EQUAL script_index)
    set(script_seen TRUE)
  endif()
endforeach()
if(command STREQUAL "")
  message(FATAL_ERROR "cli_case.cmake: no command given")
endif()

execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit status ${status}, expected ${EXIT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT "${out}${err}" MATCHES "${OUTPUT}")
  message(FATAL_ERROR "output does not match '${OUTPUT}'\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
