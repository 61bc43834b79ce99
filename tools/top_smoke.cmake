# CTest script: the continuous telemetry plane end to end at scale.
#
# Drives the hybrid-cut workflow at 256 fiber ranks with a --telemetry
# stream attached (the file papar_top tails during a live run), then
# renders the stream with papar_top and checks the dashboard: every rank
# row present, the stage / mailbox / spill columns populated, and the
# final frame marked FINAL. Also forces a budget breach with --flight-rec
# on and replays the resulting bundle offline.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# A deterministic edge list big enough to give all 256 ranks work.
set(edges "")
foreach(i RANGE 0 1999)
  math(EXPR src "(${i} * 37 + 11) % 997")
  math(EXPR dst "(${i} * 13 + 5) % 131")
  string(APPEND edges "${src}\t${dst}\n")
endforeach()
file(WRITE "${WORK_DIR}/edges.txt" "${edges}")

# -- Live run at 256 fiber ranks with the telemetry stream on ----------------

execute_process(
  COMMAND "${PAPAR_CLI}"
          --input-config "${CONFIG_DIR}/graph_edge.xml"
          --workflow "${CONFIG_DIR}/hybrid_cut.xml"
          --arg input_file=edges.txt
          --arg output_path=${WORK_DIR}/parts/graph
          --arg num_partitions=4
          --arg threshold=15
          --file edges.txt=${WORK_DIR}/edges.txt
          --nodes 256
          --mem-budget 256m
          --telemetry "${WORK_DIR}/live.jsonl"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "papar 256-rank telemetry run failed (${rc}): ${err}")
endif()
if(NOT EXISTS "${WORK_DIR}/live.jsonl")
  message(FATAL_ERROR "--telemetry wrote no stream file")
endif()

execute_process(
  COMMAND "${PAPAR_TOP}" --once --rows 256 --no-color "${WORK_DIR}/live.jsonl"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "papar_top failed on the stream (${rc}): ${err}")
endif()
if(NOT out MATCHES "papar_top — 256 ranks")
  message(FATAL_ERROR "papar_top header missing or wrong rank count: ${out}")
endif()
if(NOT out MATCHES "FINAL")
  message(FATAL_ERROR "final stream frame not marked FINAL: ${out}")
endif()
foreach(col "RANK" "STATE" "STAGE" "MAILBOX" "MEM" "SPILL" "SORTED")
  if(NOT out MATCHES "${col}")
    message(FATAL_ERROR "papar_top output lacks the ${col} column: ${out}")
  endif()
endforeach()
# Every rank row renders (rank 0 and rank 255 bracket the table) and the
# stage column carries a real workflow stage, not the empty placeholder.
if(NOT out MATCHES "\n   0 " OR NOT out MATCHES "\n 255 ")
  message(FATAL_ERROR "papar_top did not render all 256 rank rows: ${out}")
endif()
if(NOT out MATCHES "output|job:|setup|done")
  message(FATAL_ERROR "stage column is unpopulated: ${out}")
endif()

# -- Flight bundle from a forced budget breach, replayed offline -------------

execute_process(
  COMMAND "${PAPAR_CLI}"
          --input-config "${CONFIG_DIR}/graph_edge.xml"
          --workflow "${CONFIG_DIR}/hybrid_cut.xml"
          --arg input_file=edges.txt
          --arg output_path=${WORK_DIR}/parts-breach/graph
          --arg num_partitions=4
          --arg threshold=15
          --file edges.txt=${WORK_DIR}/edges.txt
          --nodes 4
          --mem-budget 4k
          --flight-rec "${WORK_DIR}/flight"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "4k budget unexpectedly sufficed; no breach to record")
endif()
if(NOT EXISTS "${WORK_DIR}/flight/flight.json")
  message(FATAL_ERROR "--flight-rec wrote no bundle: ${err}")
endif()

execute_process(
  COMMAND "${PAPAR_TOP}" --once --no-color "${WORK_DIR}/flight/flight.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "papar_top failed on the flight bundle (${rc}): ${err}")
endif()
if(NOT out MATCHES "flight bundle: BudgetExceededError")
  message(FATAL_ERROR "bundle replay lacks the error header: ${out}")
endif()
