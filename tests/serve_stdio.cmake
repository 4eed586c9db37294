# Serves SCRIPT with gcr_serve twice — stdin and stdout redirected to
# regular files, then through pipes — and requires the same replies once
# the timing values are masked.  epoll refuses regular files, so the first
# run exercises the front-end's no-wait path for them.  A third run serves
# `--fd 0` on a pipe, which cannot be written, and must exit non-zero.
#
#   cmake -DSERVER=<gcr_serve> -DSCRIPT=<script> -DWORK=<dir> \
#         -P serve_stdio.cmake

execute_process(COMMAND ${SERVER}
  INPUT_FILE ${SCRIPT} OUTPUT_FILE ${WORK}/replies_file.txt
  RESULT_VARIABLE file_rc)
execute_process(COMMAND ${CMAKE_COMMAND} -E cat ${SCRIPT}
  COMMAND ${SERVER}
  OUTPUT_VARIABLE piped RESULTS_VARIABLE pipe_rcs)
file(READ ${WORK}/replies_file.txt filed)
if(NOT file_rc EQUAL 0 OR NOT pipe_rcs STREQUAL "0;0")
  message(FATAL_ERROR "gcr_serve exited with ${file_rc} (files) and "
                      "${pipe_rcs} (pipe)")
endif()

# A connection lost to an I/O error fails the run: with --fd 0 on a pipe
# every reply goes to the pipe's read end, so the first write fails.
execute_process(COMMAND ${CMAKE_COMMAND} -E cat ${SCRIPT}
  COMMAND ${SERVER} --fd 0
  OUTPUT_QUIET ERROR_VARIABLE broken_err RESULTS_VARIABLE broken_rcs)
list(GET broken_rcs 1 broken_rc)
if(broken_rc EQUAL 0 OR NOT broken_err MATCHES "1 dropped error")
  message(FATAL_ERROR "gcr_serve --fd 0 on a pipe exited with "
                      "'${broken_rc}':\n${broken_err}")
endif()

# The script must really have routed and counted: a wrong session key
# would answer ERR identically both ways.
foreach(want "routed=1 failed=0" "\nrequests_ok 1\n" "\nOK 0 bye\n")
  string(FIND "${filed}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "missing '${want}' in:\n${filed}")
  endif()
endforeach()

# Timings (`*_us`, `uptime_s`, loop wakeups) vary run to run, and so do
# the byte counts of the replies that carry them.
foreach(run filed piped)
  string(REGEX REPLACE "(_us|_s)([ =])[0-9]+" "\\1\\2#" ${run} "${${run}}")
  string(REGEX REPLACE "(wakeups|bytes_out) [0-9]+" "\\1 #" ${run}
         "${${run}}")
  string(REGEX REPLACE "\nOK [0-9]+\n" "\nOK #\n" ${run} "${${run}}")
endforeach()
if(NOT filed STREQUAL piped)
  message(FATAL_ERROR "replies differ:\n--- files\n${filed}\n--- pipe\n"
                      "${piped}")
endif()
