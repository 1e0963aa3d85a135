# Writer -> reader round trip: each bench artifact writer's fresh output
# must render through ftreport's strict reader (exit 0).
#
#   cmake -DFTREPORT=<ftreport> -DFIG9=<fig9a_twolevel>
#         -DDEGRADATION=<fig_degradation> -DFTSCHED=<ftsched> -DOUT=<dir>
#         -P check_roundtrip.cmake
foreach(var FTREPORT FIG9 DEGRADATION FTSCHED OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_roundtrip: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
set(_writers
    "fig9a\;${FIG9}\;1\;--json=${OUT}/fig9a.json"
    "degradation\;${DEGRADATION}\;1\;--json=${OUT}/degradation.json"
    "soak\;${FTSCHED}\;soak\;2\;4\;levelwise\;7\;--ops=30\;--json=${OUT}/soak.json")
foreach(writer ${_writers})
  list(POP_FRONT writer name)
  execute_process(COMMAND ${writer} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: writer exited with ${rc}")
  endif()
  execute_process(COMMAND ${FTREPORT} report --bench ${OUT}/${name}.json
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ftreport report --bench ${OUT}/${name}.json "
                        "exited with ${rc}: ${err}")
  endif()
endforeach()
message(STATUS "fig9a, degradation and soak artifacts render")
