# Merge every BENCH_*.json into one BENCH_trajectory.json blob:
# {"generated": <epoch>, "benches": {"<name>": <contents>, ...}}.
# Each bench binary owns its BENCH_<name>.json schema; this script only
# aggregates, so charting tooling reads a single artifact per build.
#
# Sources, in order of preference per bench name:
#   1. BENCH_DIR (the build tree) — fresh results from benches run here.
#   2. BENCH_SOURCE_DIR (the repo root) — the committed baselines. A
#      fresh build tree has run no benches yet, and the old behaviour of
#      globbing only BENCH_DIR silently produced an EMPTY trajectory
#      there; the committed files are exactly the series the trajectory
#      exists to chart, so they are the fallback row by row.
#
#   cmake -DBENCH_DIR=build [-DBENCH_SOURCE_DIR=.] \
#         [-DREQUIRE_NONEMPTY=1] -P bench/make_trajectory.cmake

cmake_policy(SET CMP0057 NEW) # IN_LIST in script mode

if(NOT DEFINED BENCH_DIR)
    set(BENCH_DIR "${CMAKE_CURRENT_BINARY_DIR}")
endif()

# The full artifact set the bench binaries can emit. Missing entries
# are normal — only the benches actually run (or committed) have files
# — so they are reported and skipped, never an error.
set(known_benches fleet overhead)

# Collect one file per bench name: build tree first, committed
# baseline second.
set(bench_files "")
file(GLOB fresh_files "${BENCH_DIR}/BENCH_*.json")
list(FILTER fresh_files EXCLUDE REGEX "BENCH_trajectory\\.json$")
set(fresh_names "")
foreach(path IN LISTS fresh_files)
    get_filename_component(fname "${path}" NAME_WE)
    string(REGEX REPLACE "^BENCH_" "" bench_name "${fname}")
    list(APPEND fresh_names "${bench_name}")
    list(APPEND bench_files "${path}")
endforeach()

if(DEFINED BENCH_SOURCE_DIR)
    file(GLOB committed_files "${BENCH_SOURCE_DIR}/BENCH_*.json")
    list(FILTER committed_files EXCLUDE REGEX "BENCH_trajectory\\.json$")
    foreach(path IN LISTS committed_files)
        get_filename_component(fname "${path}" NAME_WE)
        string(REGEX REPLACE "^BENCH_" "" bench_name "${fname}")
        if(NOT bench_name IN_LIST fresh_names)
            list(APPEND bench_files "${path}")
        endif()
    endforeach()
endif()

# Emit rows in the fixed known_benches order so trajectory diffs are
# stable tier by tier (a lexicographic sort interleaved unrelated
# benches whenever a new BENCH_*.json appeared). Benches not in the
# known list — a new bench binary whose name has not been registered
# here yet — follow after, sorted, rather than being dropped.
set(ordered_files "")
foreach(name IN LISTS known_benches)
    set(have FALSE)
    foreach(path IN LISTS bench_files)
        if(path MATCHES "BENCH_${name}\\.json$")
            list(APPEND ordered_files "${path}")
            set(have TRUE)
        endif()
    endforeach()
    if(NOT have)
        message(STATUS
            "bench-trajectory: BENCH_${name}.json not present "
            "(bench_${name} not run, no committed baseline) — skipping")
    endif()
endforeach()
set(extra_files "")
foreach(path IN LISTS bench_files)
    if(NOT path IN_LIST ordered_files)
        list(APPEND extra_files "${path}")
    endif()
endforeach()
list(SORT extra_files)
set(bench_files ${ordered_files} ${extra_files})

if(NOT bench_files)
    if(REQUIRE_NONEMPTY)
        message(FATAL_ERROR
            "bench-trajectory: no BENCH_*.json found in ${BENCH_DIR} "
            "or the committed baselines — the trajectory would be "
            "empty")
    endif()
    message(STATUS
        "bench-trajectory: no BENCH_*.json in ${BENCH_DIR} — writing "
        "an empty trajectory (run a bench binary to populate it, e.g. "
        "./bench/bench_fleet)")
    string(TIMESTAMP now "%s" UTC)
    file(WRITE "${BENCH_DIR}/BENCH_trajectory.json"
        "{\n  \"generated\": ${now},\n  \"benches\": {}\n}\n")
    return()
endif()

string(TIMESTAMP now "%s" UTC)
set(blob "{\n  \"generated\": ${now},\n  \"benches\": {\n")
set(first TRUE)
foreach(path IN LISTS bench_files)
    get_filename_component(fname "${path}" NAME_WE)
    string(REGEX REPLACE "^BENCH_" "" bench_name "${fname}")
    file(READ "${path}" contents)
    string(STRIP "${contents}" contents)
    # Indent the nested document two levels for readability.
    string(REPLACE "\n" "\n    " contents "${contents}")
    if(NOT first)
        string(APPEND blob ",\n")
    endif()
    set(first FALSE)
    string(APPEND blob "    \"${bench_name}\": ${contents}")
endforeach()
string(APPEND blob "\n  }\n}\n")

file(WRITE "${BENCH_DIR}/BENCH_trajectory.json" "${blob}")
list(LENGTH bench_files count)
message(STATUS
    "bench-trajectory: merged ${count} bench file(s) into "
    "${BENCH_DIR}/BENCH_trajectory.json")
