# Drives the CLI through the full pipeline on the tiny design.
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_step)
    execute_process(COMMAND ${APOLLO_CLI} ${ARGN}
                    WORKING_DIRECTORY ${WORK_DIR}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "apollo ${ARGN} failed (${rc}): ${out} ${err}")
    endif()
endfunction()

run_step(gen-data --design tiny --out train.apds --benchmarks 10
         --cycles 200)
run_step(gen-test --design tiny --out test.apds)
run_step(train --data train.apds --q 25 --out model.txt)
run_step(eval --model model.txt --data test.apds)
run_step(opm --model model.txt --design tiny --bits 10 --emit opm.hh
         --metrics-json opm_metrics.json)
run_step(trace --model model.txt --design tiny --cycles 5000
         --out trace.csv --metrics-json metrics.json
         --trace-out spans.json)
run_step(droop-lab --model model.txt --design tiny --cycles 600
         --out droop_lab.json)

# An output that cannot be written must fail the command, not print
# "wrote ..." and exit 0.
function(expect_failure)
    execute_process(COMMAND ${APOLLO_CLI} ${ARGN}
                    WORKING_DIRECTORY ${WORK_DIR}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(rc EQUAL 0)
        message(FATAL_ERROR "apollo ${ARGN} succeeded but should fail: "
                            "${out} ${err}")
    endif()
endfunction()

set(unwritable ${WORK_DIR}/no_such_dir)
expect_failure(trace --model model.txt --design tiny --cycles 500
               --out ${unwritable}/t.csv)
expect_failure(train --data train.apds --q 25 --out ${unwritable}/m.txt)
expect_failure(opm --model model.txt --design tiny --bits 10
               --emit ${unwritable}/o.hh)

# The streamed CSV starts with the power sink's header.
file(STRINGS ${WORK_DIR}/trace.csv trace_head LIMIT_COUNT 1)
if(NOT trace_head STREQUAL "index,power")
    message(FATAL_ERROR "trace.csv header is '${trace_head}', "
                        "want 'index,power'")
endif()

# The serving path: generate a deterministic request stream, serve it
# with per-session recording, then replay one record file — the
# replayed power lines must be byte-identical to the live run's.
run_step(serve-gen --model model.txt --name default --sessions 2
         --chunks 3 --cycles-per-chunk 300 --seed 5
         --out serve_requests.ndjson)
run_step(serve --model model.txt --bits 10 --in serve_requests.ndjson
         --out serve_live.ndjson --record serve_rec --threads 2
         --metrics-json serve_metrics.json)
run_step(serve --model model.txt --replay serve_rec/s0.ndjson
         --out serve_replay.ndjson)

file(READ ${WORK_DIR}/serve_live.ndjson serve_live)
file(READ ${WORK_DIR}/serve_replay.ndjson serve_replay)
string(REGEX MATCHALL "[^\n]*\"session\":\"s0\"[^\n]*\"first_index\"[^\n]*"
       live_s0 "${serve_live}")
string(REGEX MATCHALL "[^\n]*\"session\":\"s0\"[^\n]*\"first_index\"[^\n]*"
       replay_s0 "${serve_replay}")
if(NOT live_s0)
    message(FATAL_ERROR "serve produced no power events for s0")
endif()
if(NOT "${live_s0}" STREQUAL "${replay_s0}")
    message(FATAL_ERROR "serve replay diverged from the live run")
endif()
file(READ ${WORK_DIR}/serve_metrics.json serve_metrics)
if(NOT serve_metrics MATCHES "apollo\\.serve\\.sessions")
    message(FATAL_ERROR "serve metrics snapshot lacks serve counters")
endif()

file(READ ${WORK_DIR}/droop_lab.json droop_lab)
if(NOT droop_lab MATCHES "apollo\\.droop_lab\\.v1")
    message(FATAL_ERROR "droop-lab report lacks its schema marker")
endif()

foreach(artifact train.apds test.apds model.txt opm.hh trace.csv
        droop_lab.json
        opm_metrics.json metrics.json spans.json
        serve_requests.ndjson serve_live.ndjson serve_replay.ndjson
        serve_metrics.json serve_rec/s0.ndjson serve_rec/s1.ndjson)
    if(NOT EXISTS ${WORK_DIR}/${artifact})
        message(FATAL_ERROR "missing artifact: ${artifact}")
    endif()
endforeach()

# The observability artifacts must carry their documented structure
# (real JSON parsing is covered by tests/test_obs.cc; here we check
# the CLI wired the right registries to the right files).
file(READ ${WORK_DIR}/opm_metrics.json opm_metrics)
if(NOT opm_metrics MATCHES "apollo\\.opm\\.quantizations")
    message(FATAL_ERROR "opm metrics snapshot lacks OPM counters")
endif()
file(READ ${WORK_DIR}/metrics.json metrics)
foreach(counter apollo.activity.programs apollo.stream.runs
        apollo.flow.runs)
    string(REPLACE "." "\\." counter_re ${counter})
    if(NOT metrics MATCHES "${counter_re}")
        message(FATAL_ERROR
                "trace metrics snapshot lacks ${counter}")
    endif()
endforeach()
file(READ ${WORK_DIR}/spans.json spans)
if(NOT spans MATCHES "traceEvents" OR NOT spans MATCHES "\"ph\": \"X\"")
    message(FATAL_ERROR "span file is not Chrome trace_event JSON")
endif()
