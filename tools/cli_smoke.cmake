# CTest script: run the papar CLI end to end on the shipped configurations.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# A small deterministic edge list.
set(edges "")
foreach(i RANGE 0 499)
  math(EXPR src "(${i} * 37 + 11) % 97")
  math(EXPR dst "(${i} * 13 + 5) % 23")
  string(APPEND edges "${src}\t${dst}\n")
endforeach()
file(WRITE "${WORK_DIR}/edges.txt" "${edges}")

execute_process(
  COMMAND "${PAPAR_CLI}"
          --input-config "${CONFIG_DIR}/graph_edge.xml"
          --workflow "${CONFIG_DIR}/hybrid_cut.xml"
          --arg input_file=edges.txt
          --arg output_path=${WORK_DIR}/parts/graph
          --arg num_partitions=4
          --arg threshold=15
          --file edges.txt=${WORK_DIR}/edges.txt
          --nodes 4 --stats
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "papar CLI failed (${rc}): ${out} ${err}")
endif()

# Every input edge must land in exactly one partition file.
set(total 0)
foreach(p RANGE 0 3)
  if(NOT EXISTS "${WORK_DIR}/parts/graph.${p}")
    message(FATAL_ERROR "missing partition file graph.${p}")
  endif()
  file(STRINGS "${WORK_DIR}/parts/graph.${p}" lines)
  list(LENGTH lines n)
  math(EXPR total "${total} + ${n}")
endforeach()
if(NOT total EQUAL 500)
  message(FATAL_ERROR "partitions hold ${total} edges, expected 500")
endif()

# Placement never changes partitions: on 3 nodes the group shuffle's ranks
# no longer line up with graphVertexCut's 4 partitions, so low-degree groups
# travel in distribute, and every part file must still equal the 4-node one.
execute_process(
  COMMAND "${PAPAR_CLI}"
          --input-config "${CONFIG_DIR}/graph_edge.xml"
          --workflow "${CONFIG_DIR}/hybrid_cut.xml"
          --arg input_file=edges.txt
          --arg output_path=${WORK_DIR}/parts-3nodes/graph
          --arg num_partitions=4
          --arg threshold=15
          --file edges.txt=${WORK_DIR}/edges.txt
          --nodes 3
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "papar CLI failed on 3 nodes (${rc}): ${out} ${err}")
endif()
foreach(p RANGE 0 3)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${WORK_DIR}/parts/graph.${p}" "${WORK_DIR}/parts-3nodes/graph.${p}"
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "partition graph.${p} differs between the 4-node and "
                        "3-node runs")
  endif()
endforeach()

# Same workflow under an injected crash plus a lossy fabric: the run must
# recover and write partitions byte-identical to the fault-free run above.
execute_process(
  COMMAND "${PAPAR_CLI}"
          --input-config "${CONFIG_DIR}/graph_edge.xml"
          --workflow "${CONFIG_DIR}/hybrid_cut.xml"
          --arg input_file=edges.txt
          --arg output_path=${WORK_DIR}/parts-faulted/graph
          --arg num_partitions=4
          --arg threshold=15
          --file edges.txt=${WORK_DIR}/edges.txt
          --nodes 4 --stats
          --faults "drop=0.05,crash=1@20" --fault-seed 7
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "papar CLI failed under fault injection (${rc}): ${out} ${err}")
endif()
# Progress/analysis output goes to stderr (stdout stays clean for piping).
# The scheduled crash must actually have fired.
if(NOT err MATCHES "faults injected: [^\n]* 1 crashes;")
  message(FATAL_ERROR "faulted CLI run did not report its one crash: ${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "papar polluted stdout: ${out}")
endif()
foreach(p RANGE 0 3)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${WORK_DIR}/parts/graph.${p}" "${WORK_DIR}/parts-faulted/graph.${p}"
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "partition graph.${p} differs between the fault-free "
                        "and crash-recovered runs")
  endif()
endforeach()

# A crash scheduled past the rank's last communication event must fail the
# run loudly instead of silently testing nothing; partitions are still
# written.
execute_process(
  COMMAND "${PAPAR_CLI}"
          --input-config "${CONFIG_DIR}/graph_edge.xml"
          --workflow "${CONFIG_DIR}/hybrid_cut.xml"
          --arg input_file=edges.txt
          --arg output_path=${WORK_DIR}/parts-unfired/graph
          --arg num_partitions=4
          --arg threshold=15
          --file edges.txt=${WORK_DIR}/edges.txt
          --nodes 4 --faults "crash=1@100000"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "crash=1@100000 never fired \\(rank 1 made [0-9]+ communication events\\)")
  message(FATAL_ERROR "unfired crash was not reported (${rc}): ${err}")
endif()
if(NOT EXISTS "${WORK_DIR}/parts-unfired/graph.0")
  message(FATAL_ERROR "the unfired-crash run did not write its partitions")
endif()

# Removed knobs are rejected, not ignored.
foreach(flag "--sort;auto" "--pages;framed" "--scheduler;threads")
  execute_process(
    COMMAND "${PAPAR_CLI}" ${flag}
            --input-config "${CONFIG_DIR}/graph_edge.xml"
            --workflow "${CONFIG_DIR}/hybrid_cut.xml"
    RESULT_VARIABLE rc
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "unknown flag")
    message(FATAL_ERROR "papar ${flag} was not rejected (${rc}): ${err}")
  endif()
endforeach()

# A worker count below 1 is a configuration error, not "hardware concurrency".
foreach(workers 0 -3)
  execute_process(
    COMMAND "${PAPAR_CLI}" --workers ${workers}
            --input-config "${CONFIG_DIR}/graph_edge.xml"
            --workflow "${CONFIG_DIR}/hybrid_cut.xml"
    RESULT_VARIABLE rc
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "--workers must be >= 1")
    message(FATAL_ERROR "papar --workers ${workers} was not rejected (${rc}): ${err}")
  endif()
endforeach()

# A split threshold that is not a whole number fails the run instead of
# being truncated to its leading digits.
execute_process(
  COMMAND "${PAPAR_CLI}"
          --input-config "${CONFIG_DIR}/graph_edge.xml"
          --workflow "${CONFIG_DIR}/hybrid_cut.xml"
          --arg input_file=edges.txt
          --arg output_path=${WORK_DIR}/parts-bad-threshold/graph
          --arg num_partitions=4
          --arg threshold=22.9
          --file edges.txt=${WORK_DIR}/edges.txt
          --nodes 4
  RESULT_VARIABLE rc
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "config error.*split threshold")
  message(FATAL_ERROR "papar --arg threshold=22.9 was not rejected (${rc}): ${err}")
endif()

# A partition count outside [1, 2^32 - 1] is a configuration error: zero
# used to report an internal error, and 2^32 aborted on std::bad_alloc.
foreach(parts 0 4294967296)
  execute_process(
    COMMAND "${PAPAR_CLI}"
            --input-config "${CONFIG_DIR}/graph_edge.xml"
            --workflow "${CONFIG_DIR}/hybrid_cut.xml"
            --arg input_file=edges.txt
            --arg output_path=${WORK_DIR}/parts-bad-partitions/graph
            --arg num_partitions=${parts}
            --arg threshold=15
            --file edges.txt=${WORK_DIR}/edges.txt
            --nodes 4
    RESULT_VARIABLE rc
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "config error.*numPartitions")
    message(FATAL_ERROR "papar --arg num_partitions=${parts} was not rejected (${rc}): ${err}")
  endif()
endforeach()

# Numeric misconfiguration fails the run instead of being ignored or
# poisoning the clocks (a negative retry-max or backoff reaches
# Runtime::set_recovery; nan and inf never parse).
foreach(flag "--retry-backoff;-1" "--retry-backoff;nan" "--retry-max;-1"
             "--faults;slow=1@inf")
  execute_process(
    COMMAND "${PAPAR_CLI}" ${flag}
            --input-config "${CONFIG_DIR}/graph_edge.xml"
            --workflow "${CONFIG_DIR}/hybrid_cut.xml"
            --arg input_file=edges.txt
            --arg output_path=${WORK_DIR}/parts-misconfigured/graph
            --arg num_partitions=4
            --arg threshold=15
            --file edges.txt=${WORK_DIR}/edges.txt
            --nodes 4
    RESULT_VARIABLE rc
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "config error")
    message(FATAL_ERROR "papar ${flag} was not rejected (${rc}): ${err}")
  endif()
endforeach()

# Malformed input fails the run with its data error: an edge list whose last
# line lacks its terminating newline.
file(WRITE "${WORK_DIR}/edges-unterminated.txt" "1\t2\n3\t4\n5\t6")
execute_process(
  COMMAND "${PAPAR_CLI}"
          --input-config "${CONFIG_DIR}/graph_edge.xml"
          --workflow "${CONFIG_DIR}/hybrid_cut.xml"
          --arg input_file=edges.txt
          --arg output_path=${WORK_DIR}/parts-unterminated/graph
          --arg num_partitions=4
          --arg threshold=15
          --file edges.txt=${WORK_DIR}/edges-unterminated.txt
          --nodes 4
  RESULT_VARIABLE rc
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "data error: unterminated field")
  message(FATAL_ERROR "an unterminated last line was not rejected (${rc}): ${err}")
endif()
