# The pipeline benchmark binary, linked against the product's own umon_*
# libraries. Included (deferred) at the end of the top-level CMakeLists.txt
# by hook.cmake, so it inherits the product's include path and flags.
add_executable(umon_pipeline_bench
  "${UMON_PIPELINE_BENCH_DIR}/main.cpp"
  "${UMON_PIPELINE_BENCH_DIR}/trace.cpp"
  "${UMON_PIPELINE_BENCH_DIR}/pipeline.cpp"
  "${UMON_PIPELINE_BENCH_DIR}/query_client.cpp")
target_link_libraries(umon_pipeline_bench PRIVATE
  umon_sketch umon_analyzer umon_netsim umon_workload umon_collector
  umon_resilience umon_store umon_obs umon_serve umon_telemetry
  Threads::Threads)
# The chaos plan defines the hadoop-chaos workload, so the binary reads it
# from this directory wherever it runs.
target_compile_definitions(umon_pipeline_bench PRIVATE
  UMON_PIPELINE_CHAOS_PLAN="${UMON_PIPELINE_BENCH_DIR}/chaos.plan")
set_target_properties(umon_pipeline_bench PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}")
