# Work-counter gate: runs one fixed ftsched experiment and byte-compares the
# metrics JSONL it writes against the committed copy. The counts (AND rows,
# picks, rollback entries, leaf-claim failures, rejections per level, retries)
# do not depend on the machine or on --threads, so any difference is a change
# in what the scheduler did, not noise.
#
#   cmake -DFTSCHED=<ftsched> -DRUN=<name> -DTHREADS=<n> -DBASELINE=<dir>
#         -DOUT=<dir> "-DARGS=schedule 3 16 levelwise random 8"
#         [-DFLAG=--flight-dump] -P check_counters.cmake
#
# FLAG names the ftsched option that writes the compared artifact
# (default --metrics-out; --flight-dump gates the lifecycle ledger the same
# way). ftsched writes <OUT>/<RUN>.jsonl (schedule) or
# <OUT>/<RUN>.rep<k>.jsonl (degrade metrics); every <RUN>.jsonl /
# <RUN>.rep*.jsonl under BASELINE must match.
foreach(var FTSCHED RUN THREADS BASELINE OUT ARGS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_counters: -D${var}=... is required")
  endif()
endforeach()

if(NOT DEFINED FLAG)
  set(FLAG --metrics-out)
endif()

separate_arguments(ARGS UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
execute_process(
  COMMAND ${FTSCHED} ${ARGS} --threads=${THREADS}
          ${FLAG}=${OUT}/${RUN}.jsonl
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ftsched ${ARGS} --threads=${THREADS} exited with ${rc}")
endif()

file(GLOB expected RELATIVE ${BASELINE}
     ${BASELINE}/${RUN}.jsonl ${BASELINE}/${RUN}.rep*.jsonl)
if(NOT expected)
  message(FATAL_ERROR "no committed counter file for ${RUN} in ${BASELINE}")
endif()
foreach(name ${expected})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${BASELINE}/${name}
            ${OUT}/${name}
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR
      "${OUT}/${name} differs from the committed ${BASELINE}/${name}. "
      "If the change is intended, regenerate it with the command in "
      "bench/baselines/README.md.")
  endif()
endforeach()
list(LENGTH expected count)
message(STATUS "${RUN} at --threads=${THREADS}: ${count} file(s) match")
