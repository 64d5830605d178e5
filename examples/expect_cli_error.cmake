# Runs `${CLI} <args>` and passes only when the program rejects its
# arguments as a usage error: exit status 2 and an
# "error: ${NAME} must be" message on stderr.  The arguments follow `--`.
#
#   cmake -DCLI=<ocd_cli> -DNAME=--n -P expect_cli_error.cmake -- --n 12abc
#   cmake -DCLI=<file_swarm> -DNAME=num_files -P expect_cli_error.cmake -- 80 0
set(args)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND args "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
string(JOIN " " shown ${args})

execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "'${shown}': expected exit status 2, got "
                      "'${status}'\nstdout: ${out}\nstderr: ${err}")
endif()
string(FIND "${err}" "error: ${NAME} must be" at)
if(at EQUAL -1)
  message(FATAL_ERROR "'${shown}': stderr does not name ${NAME}\n"
                      "stderr: ${err}")
endif()
