# One binary per reproduced table/figure (E1..E11) plus the
# google-benchmark microbenches. All are plain executables:
#   for b in build/bench/*; do $b; done
# Included from the top-level CMakeLists (not add_subdirectory) so
# that build/bench/ contains nothing but the bench executables and
# `for b in build/bench/*; do $b; done` runs them all.
function(dp_add_bench name)
    add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
    target_link_libraries(${name} PRIVATE dp_harness)
    target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

dp_add_bench(bench_table1_workloads)
dp_add_bench(bench_overhead_spare)
dp_add_bench(bench_overhead_nospare)
dp_add_bench(bench_logsize)
dp_add_bench(bench_replay)
dp_add_bench(bench_rollback)
dp_add_bench(bench_epoch_sweep)
dp_add_bench(bench_baselines)
dp_add_bench(bench_scalability)
dp_add_bench(bench_ckpt_cost)

# bench_journal_scale links the journal layer directly: it measures
# sharded commit throughput and partitioned recovery, not the record
# pipeline itself.
dp_add_bench(bench_journal_scale)
target_link_libraries(bench_journal_scale PRIVATE dp_journal)

# bench_standby_lag drives the journal-shipping subsystem: standby
# lag and failover time across epoch rate x link fault rate.
dp_add_bench(bench_standby_lag)
target_link_libraries(bench_standby_lag PRIVATE dp_ship)

# bench_micro also links the harness: after the google-benchmark
# suites it emits the BENCH_micro.json summary row.
add_executable(bench_micro ${CMAKE_SOURCE_DIR}/bench/bench_micro.cc)
target_link_libraries(bench_micro PRIVATE
    dp_os dp_log dp_harness dp_workloads benchmark::benchmark)
target_include_directories(bench_micro PRIVATE ${CMAKE_SOURCE_DIR}/bench)
set_target_properties(bench_micro PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
