# CTest script: drive both shipped workflows through the CLI with tracing
# and metrics on, then analyse the artifacts with papar_trace.
#
# Checks end to end that (1) --trace writes a Chrome trace with flow-event
# message arrows and the embedded "papar" analysis section, (2) --metrics
# writes Prometheus text exposition, (3) papar_trace prints the critical
# path and skew table from a single trace and the regression diff from two,
# (4) stdout of the papar CLI stays empty so pipes never see log noise, and
# (5) on a faulted run each fault quantity printed by --stats equals its one
# --metrics series, and every exported family has a row in README's table.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# -- Inputs -------------------------------------------------------------------

# A small deterministic edge list for the hybrid-cut workflow.
set(edges "")
foreach(i RANGE 0 499)
  math(EXPR src "(${i} * 37 + 11) % 97")
  math(EXPR dst "(${i} * 13 + 5) % 23")
  string(APPEND edges "${src}\t${dst}\n")
endforeach()
file(WRITE "${WORK_DIR}/edges.txt" "${edges}")

# A text rendition of the BLAST database index (same schema as the shipped
# binary spec, declared as tab-delimited text so the script can write it).
file(WRITE "${WORK_DIR}/blast_db_text.xml" "<?xml version=\"1.0\"?>
<input id=\"blast_db\" name=\"BLAST index as text\">
  <input_format>text</input_format>
  <element>
    <value name=\"seq_start\" type=\"integer\"/>
    <delimiter value=\"\\t\"/>
    <value name=\"seq_size\" type=\"integer\"/>
    <delimiter value=\"\\t\"/>
    <value name=\"desc_start\" type=\"integer\"/>
    <delimiter value=\"\\t\"/>
    <value name=\"desc_size\" type=\"integer\"/>
    <delimiter value=\"\\n\"/>
  </element>
</input>
")
set(index "")
set(seq_start 0)
set(desc_start 0)
foreach(i RANGE 0 199)
  math(EXPR seq_size "20 + (${i} * 131) % 480")
  math(EXPR desc_size "10 + (${i} * 37) % 120")
  string(APPEND index "${seq_start}\t${seq_size}\t${desc_start}\t${desc_size}\n")
  math(EXPR seq_start "${seq_start} + ${seq_size}")
  math(EXPR desc_start "${desc_start} + ${desc_size}")
endforeach()
file(WRITE "${WORK_DIR}/index.txt" "${index}")

# -- Helpers ------------------------------------------------------------------

function(check_artifacts trace_file prom_file stdout_text)
  if(NOT stdout_text STREQUAL "")
    message(FATAL_ERROR "papar polluted stdout: ${stdout_text}")
  endif()
  file(READ "${trace_file}" trace)
  if(NOT trace MATCHES "\"traceEvents\"")
    message(FATAL_ERROR "${trace_file} is not a Chrome trace")
  endif()
  if(NOT trace MATCHES "\"ph\":\"s\"" OR NOT trace MATCHES "\"ph\":\"f\"")
    message(FATAL_ERROR "${trace_file} has no flow-event message arrows")
  endif()
  if(NOT trace MATCHES "\"papar\"")
    message(FATAL_ERROR "${trace_file} lacks the embedded papar section")
  endif()
  file(READ "${prom_file}" prom)
  if(NOT prom MATCHES "# TYPE papar_" OR NOT prom MATCHES "_bucket{le=")
    message(FATAL_ERROR "${prom_file} is not Prometheus text exposition")
  endif()
endfunction()

# -- BLAST workflow -----------------------------------------------------------

execute_process(
  COMMAND "${PAPAR_CLI}"
          --input-config "${WORK_DIR}/blast_db_text.xml"
          --workflow "${CONFIG_DIR}/blast_partition.xml"
          --arg input_path=index.txt
          --arg output_path=${WORK_DIR}/parts-blast/db
          --arg num_partitions=3
          --file index.txt=${WORK_DIR}/index.txt
          --nodes 4 --stats
          --trace "${WORK_DIR}/blast_trace.json"
          --metrics "${WORK_DIR}/blast.prom"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "papar blast run failed (${rc}): ${err}")
endif()
if(NOT err MATCHES "critical path")
  message(FATAL_ERROR "--stats printed no critical path: ${err}")
endif()
check_artifacts("${WORK_DIR}/blast_trace.json" "${WORK_DIR}/blast.prom" "${out}")

# -- Hybrid-cut workflow, twice (for the regression diff) --------------------

foreach(run a b)
  if(run STREQUAL "a")
    set(threshold 15)
  else()
    set(threshold 5)
  endif()
  execute_process(
    COMMAND "${PAPAR_CLI}"
            --input-config "${CONFIG_DIR}/graph_edge.xml"
            --workflow "${CONFIG_DIR}/hybrid_cut.xml"
            --arg input_file=edges.txt
            --arg output_path=${WORK_DIR}/parts-${run}/graph
            --arg num_partitions=4
            --arg threshold=${threshold}
            --file edges.txt=${WORK_DIR}/edges.txt
            --nodes 4
            --trace "${WORK_DIR}/hybrid_${run}.json"
            --metrics "${WORK_DIR}/hybrid_${run}.prom"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "papar hybrid run ${run} failed (${rc}): ${err}")
  endif()
  check_artifacts("${WORK_DIR}/hybrid_${run}.json" "${WORK_DIR}/hybrid_${run}.prom" "${out}")
endforeach()

# -- One name per quantity: --stats and --metrics agree ----------------------

# A faulted, governed run: drops, corruptions, a locally replayed crash with
# re-fetches, and checkpoints. Each fault quantity is counted by one owner,
# printed by --stats under its report key and exported once.
execute_process(
  COMMAND "${PAPAR_CLI}"
          --input-config "${CONFIG_DIR}/graph_edge.xml"
          --workflow "${CONFIG_DIR}/hybrid_cut.xml"
          --arg input_file=edges.txt
          --arg output_path=${WORK_DIR}/parts-faulted/graph
          --arg num_partitions=4
          --arg threshold=15
          --file edges.txt=${WORK_DIR}/edges.txt
          --nodes 4 --stats --metrics "${WORK_DIR}/faulted.prom"
          --mem-budget 1m
          --faults "drop=0.05,corrupt=0.05,crash=1@20" --fault-seed 7
          --recovery local
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "papar faulted run failed (${rc}): ${err}")
endif()
file(READ "${WORK_DIR}/faulted.prom" prom)
foreach(key drops retries corruptions rank_replays segments_refetched checkpoint_saves)
  if(NOT err MATCHES "\nfaults:[^\n]* ${key}=([0-9]+)")
    message(FATAL_ERROR "--stats printed no faults ${key}: ${err}")
  endif()
  set(stat "${CMAKE_MATCH_1}")
  string(REGEX MATCHALL "\npapar_faults_${key}_total [0-9]+" series "\n${prom}")
  list(LENGTH series n)
  if(NOT n EQUAL 1)
    message(FATAL_ERROR "--metrics has ${n} papar_faults_${key}_total series, want 1")
  endif()
  string(REGEX MATCH "[0-9]+$" exported "${series}")
  if(NOT exported EQUAL stat)
    message(FATAL_ERROR "${key}: --stats says ${stat}, --metrics says ${exported}")
  endif()
endforeach()

# Every exported family has one row in README's metric table, and none of
# the families the stage-report export replaced comes back.
file(READ "${README}" readme)
string(REGEX MATCHALL "# TYPE papar_[a-zA-Z0-9_]+" families "${prom}")
list(LENGTH families nfamilies)
if(nfamilies EQUAL 0)
  message(FATAL_ERROR "faulted.prom declares no papar_ families")
endif()
foreach(family IN LISTS families)
  string(REPLACE "# TYPE " "" family "${family}")
  if(family MATCHES "^papar_(fault|ckpt|mem)_" OR
     family MATCHES "^papar_mpsim_(retransmits|remote_)" OR
     (family MATCHES "^papar_recovery_" AND
      NOT family STREQUAL "papar_recovery_retention_spill_bytes_total"))
    message(FATAL_ERROR "--metrics still exports the retired family ${family}")
  endif()
  string(FIND "${readme}" "`${family}`" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "README's metric table has no row for ${family}")
  endif()
endforeach()

# -- papar_trace over the artifacts ------------------------------------------

execute_process(
  COMMAND "${PAPAR_TRACE}" "${WORK_DIR}/blast_trace.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "papar_trace failed (${rc}): ${err}")
endif()
foreach(want "critical path" "per-stage load balance" "link traffic matrix"
             "embedded stage report" "job:sort" "job:distr")
  if(NOT out MATCHES "${want}")
    message(FATAL_ERROR "papar_trace output lacks `${want}`: ${out}")
  endif()
endforeach()

execute_process(
  COMMAND "${PAPAR_TRACE}" "${WORK_DIR}/hybrid_a.json" "${WORK_DIR}/hybrid_b.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "papar_trace diff failed (${rc}): ${err}")
endif()
if(NOT out MATCHES "regression diff" OR NOT out MATCHES "TOTAL")
  message(FATAL_ERROR "papar_trace printed no regression diff: ${out}")
endif()
