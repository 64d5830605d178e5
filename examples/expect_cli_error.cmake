# Runs `${CLI} ${FLAG} ${VALUE}` and passes only when the CLI rejects the
# value as a usage error: exit status 2 and an "error: <flag> must be"
# message on stderr.
#
#   cmake -DCLI=<ocd_cli> -DFLAG=--n -DVALUE=12abc -P expect_cli_error.cmake
execute_process(COMMAND "${CLI}" "${FLAG}" "${VALUE}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "${FLAG} '${VALUE}': expected exit status 2, got "
                      "'${status}'\nstdout: ${out}\nstderr: ${err}")
endif()
string(FIND "${err}" "error: ${FLAG} must be" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${FLAG} '${VALUE}': stderr does not name the flag\n"
                      "stderr: ${err}")
endif()
